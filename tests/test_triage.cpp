/**
 * @file
 * Unit tests for the Triage core: training unit, tag compressor,
 * metadata store (confidence, replacement, resize), partition
 * controller, and the assembled prefetcher.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "obs/lifecycle.hpp"
#include "replacement/hawkeye.hpp"
#include "replacement/optgen.hpp"
#include "triage/metadata_store.hpp"
#include "triage/partition.hpp"
#include "triage/tag_compressor.hpp"
#include "prefetch/training_unit.hpp"
#include "triage/triage.hpp"
#include "util/bitops.hpp"
#include "util/flat_map.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/row_scan.hpp"

using namespace triage;
using namespace triage::core;
using prefetch::TrainingUnit;

// ---------------------------------------------------------------------
// TrainingUnit
// ---------------------------------------------------------------------

TEST(TrainingUnit, PairsConsecutiveAccessesPerPc)
{
    TrainingUnit tu(8);
    EXPECT_FALSE(tu.update(0x1, 100).has_value());
    auto prev = tu.update(0x1, 200);
    ASSERT_TRUE(prev.has_value());
    EXPECT_EQ(*prev, 100u);
}

TEST(TrainingUnit, PcsAreIndependent)
{
    TrainingUnit tu(8);
    tu.update(0x1, 100);
    tu.update(0x2, 900);
    auto p1 = tu.update(0x1, 101);
    auto p2 = tu.update(0x2, 901);
    ASSERT_TRUE(p1.has_value());
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(*p1, 100u);
    EXPECT_EQ(*p2, 900u);
}

TEST(TrainingUnit, SameBlockTwiceYieldsNoPair)
{
    TrainingUnit tu(8);
    tu.update(0x1, 100);
    EXPECT_FALSE(tu.update(0x1, 100).has_value());
}

TEST(TrainingUnit, LruEvictsColdPc)
{
    TrainingUnit tu(2);
    tu.update(0x1, 100);
    tu.update(0x2, 200);
    tu.update(0x3, 300); // evicts PC 0x1
    EXPECT_FALSE(tu.last_of(0x1).has_value());
    EXPECT_TRUE(tu.last_of(0x2).has_value());
    EXPECT_FALSE(tu.update(0x1, 101).has_value());
}

namespace {

/**
 * The training unit Triage used before prefetch::TrainingUnit (one
 * util::LruTable set), kept verbatim as the reference its replacement
 * runs against in lockstep. It fills from the back where LruTable
 * fills the first empty way; neither ever invalidates an entry, so
 * only the slot layout differs.
 */
class RefTrainingUnit
{
  public:
    explicit RefTrainingUnit(std::uint32_t entries = 128)
        : capacity_(entries), valid_from_(entries), pcs_(entries),
          last_(entries), lru_(entries)
    {
    }

    std::optional<sim::Addr>
    update(sim::Pc pc, sim::Addr block)
    {
        const std::uint32_t hit = util::find_first_eq(
            pcs_.data() + valid_from_, capacity_ - valid_from_, pc);
        if (hit != util::NPOS) {
            const std::uint32_t i = valid_from_ + hit;
            sim::Addr prev = last_[i];
            last_[i] = block;
            lru_[i] = ++clock_;
            if (prev == block)
                return std::nullopt; // same line: no new correlation
            return prev;
        }
        std::uint32_t victim;
        if (valid_from_ > 0) {
            victim = --valid_from_;
        } else {
            victim = util::min_index(lru_.data(), capacity_);
        }
        pcs_[victim] = pc;
        last_[victim] = block;
        lru_[victim] = ++clock_;
        return std::nullopt;
    }

    std::optional<sim::Addr>
    last_of(sim::Pc pc) const
    {
        const std::uint32_t hit = util::find_first_eq(
            pcs_.data() + valid_from_, capacity_ - valid_from_, pc);
        if (hit != util::NPOS)
            return last_[valid_from_ + hit];
        return std::nullopt;
    }

  private:
    std::uint32_t capacity_;
    std::uint32_t valid_from_;
    std::vector<sim::Pc> pcs_;
    std::vector<sim::Addr> last_;
    std::vector<std::uint64_t> lru_;
    std::uint64_t clock_ = 0;
};

} // namespace

// Randomized updates on TrainingUnit and the replaced unit in lockstep:
// every returned pair agrees, and after every update so does the
// tracked block of every PC (an eviction shows as a PC gone missing).
TEST(TrainingUnit, MatchesReferenceUnderRandomizedOps)
{
    for (std::uint32_t entries : {1u, 8u, 128u}) {
        util::Rng rng(0x7475 + entries);
        TrainingUnit tu(entries);
        RefTrainingUnit ref(entries);
        const std::uint32_t pcs = 2 * entries + 2; // PCs compete for slots
        for (int op = 0; op < 20000; ++op) {
            // PC 0 and a few blocks, so repeats and same-block updates
            // are common.
            const sim::Pc pc = rng.next_below(pcs);
            const sim::Addr block = rng.next_below(6);
            ASSERT_EQ(tu.update(pc, block), ref.update(pc, block))
                << entries << " entries, op " << op;
            for (sim::Pc p = 0; p < pcs; ++p) {
                ASSERT_EQ(tu.last_of(p), ref.last_of(p))
                    << entries << " entries, op " << op << ", pc " << p;
            }
        }
    }
}

// ---------------------------------------------------------------------
// TagCompressor
// ---------------------------------------------------------------------

TEST(TagCompressor, RoundTrips)
{
    TagCompressor tc;
    auto id = tc.compress(0xdeadbeef);
    EXPECT_EQ(tc.decompress(id), 0xdeadbeefULL);
    EXPECT_EQ(tc.compress(0xdeadbeef), id); // stable
}

TEST(TagCompressor, FindDoesNotAllocate)
{
    TagCompressor tc;
    EXPECT_FALSE(tc.find(12345).has_value());
    tc.compress(12345);
    EXPECT_TRUE(tc.find(12345).has_value());
}

TEST(TagCompressor, RecyclesLruIdWhenFull)
{
    TagCompressorConfig cfg;
    cfg.id_bits = 2; // 4 slots
    TagCompressor tc(cfg);
    for (std::uint64_t t = 1; t <= 4; ++t)
        tc.compress(t);
    tc.compress(1); // refresh tag 1
    tc.compress(99); // must recycle tag 2 (the LRU)
    EXPECT_FALSE(tc.find(2).has_value());
    EXPECT_TRUE(tc.find(1).has_value());
    EXPECT_EQ(tc.recycles(), 1u);
}

TEST(TagCompressor, SplitAndCombine)
{
    TagCompressor tc;
    sim::Addr block = 0x123456789ULL;
    EXPECT_EQ(tc.combine(tc.tag_of(block), tc.set_of(block)), block);
}

// ---------------------------------------------------------------------
// MetadataStore
// ---------------------------------------------------------------------

namespace {

MetadataStoreConfig
small_store(StoreRepl repl = StoreRepl::Lru,
            std::uint64_t bytes = 64 * 1024)
{
    MetadataStoreConfig cfg;
    cfg.capacity_bytes = bytes;
    cfg.repl = repl;
    return cfg;
}

} // namespace

TEST(MetadataStore, StoresAndLooksUpCorrelation)
{
    MetadataStore s(small_store());
    s.update(100, 200, 0x1);
    auto lk = s.probe(100);
    ASSERT_TRUE(lk.hit);
    EXPECT_EQ(lk.next, 200u);
}

TEST(MetadataStore, MissOnUnknownTrigger)
{
    MetadataStore s(small_store());
    EXPECT_FALSE(s.probe(42).hit);
}

TEST(MetadataStore, ConfidenceLifecycle)
{
    // Entries are born unconfident (a pair must repeat to prefetch);
    // a confirming update arms them; one disagreement disarms but
    // keeps the successor; a second adopts the new successor.
    MetadataStore s(small_store());
    s.update(100, 200, 0x1); // insert: unconfident
    EXPECT_TRUE(s.probe(100).hit);
    EXPECT_FALSE(s.probe(100).confident);
    s.update(100, 200, 0x1); // confirm
    EXPECT_TRUE(s.probe(100).confident);
    s.update(100, 999, 0x1); // first mismatch: keep 200, disarm
    EXPECT_EQ(s.probe(100).next, 200u);
    EXPECT_FALSE(s.probe(100).confident);
    s.update(100, 999, 0x1); // second mismatch: adopt 999
    EXPECT_EQ(s.probe(100).next, 999u);
}

TEST(MetadataStore, MatchingUpdateReconfirms)
{
    MetadataStore s(small_store());
    s.update(100, 200, 0x1);
    s.update(100, 200, 0x1); // confident
    s.update(100, 999, 0x1); // confidence drops, successor kept
    s.update(100, 200, 0x1); // re-confirm 200
    EXPECT_TRUE(s.probe(100).confident);
    s.update(100, 999, 0x1); // single mismatch again: still 200
    EXPECT_EQ(s.probe(100).next, 200u);
}

TEST(MetadataStore, ZeroCapacityHoldsNothing)
{
    MetadataStore s(small_store(StoreRepl::Lru, 0));
    s.update(1, 2, 0x1);
    EXPECT_FALSE(s.probe(1).hit);
    EXPECT_EQ(s.capacity_entries(), 0u);
}

TEST(MetadataStore, CapacityBoundsEntries)
{
    MetadataStore s(small_store(StoreRepl::Lru, 4096)); // 1024 entries
    for (std::uint64_t t = 0; t < 5000; ++t)
        s.update(t * 7 + 1, t * 13 + 2, 0x1);
    EXPECT_LE(s.valid_entries(), s.capacity_entries());
    EXPECT_GT(s.stats().evictions, 0u);
}

TEST(MetadataStore, ResizeKeepsFittingEntries)
{
    MetadataStore s(small_store(StoreRepl::Lru, 64 * 1024));
    for (std::uint64_t t = 1; t <= 100; ++t)
        s.update(t, t + 1, 0x1);
    s.resize(128 * 1024);
    std::uint32_t survived = 0;
    for (std::uint64_t t = 1; t <= 100; ++t)
        survived += s.probe(t).hit ? 1 : 0;
    EXPECT_GT(survived, 90u);
    s.resize(0);
    EXPECT_FALSE(s.probe(1).hit);
}

TEST(MetadataStore, CompressedTagAliasDetectedOnProbeAndUpdate)
{
    // A 64-byte store is exactly one 16-way set, so every trigger
    // lands in the same set and a compressed-key alias is reachable:
    // recycle an entry's trigger-tag id and the stale entry silently
    // matches the id's new owner.
    MetadataStoreConfig cfg;
    cfg.capacity_bytes = 64;
    cfg.repl = StoreRepl::Lru;
    MetadataStore s(cfg);
    const TagCompressor& comp = s.compressor();

    const sim::Addr a = comp.combine(1, 5);
    const sim::Addr n = comp.combine(2, 5);
    s.update(a, n, 0x4);
    auto id = comp.find(1);
    ASSERT_TRUE(id.has_value());

    // Churn distinct tags through the compressor until tag 1's id is
    // recycled. Matching updates keep a's entry resident (they refresh
    // recency without re-compressing), so the stale entry survives.
    std::uint64_t t = 100;
    while (comp.find(1).has_value()) {
        ASSERT_LT(t, 100000u) << "compressor never recycled tag 1";
        s.update(a, n, 0x4);
        s.update(comp.combine(t, 5), comp.combine(t + 1, 5), 0x4);
        t += 2;
    }

    // The id now decodes to a different tag; a trigger built from it
    // carries the same compressed key as a's entry.
    const std::uint64_t owner = comp.decompress(*id);
    ASSERT_NE(owner, 1u);
    const sim::Addr alias = comp.combine(owner, 5);

    std::uint64_t drops = s.stats().tag_alias_drops;
    MetaLookup lk = s.probe(alias);
    EXPECT_TRUE(lk.hit); // the compressed key cannot tell them apart
    EXPECT_EQ(s.stats().tag_alias_drops, drops + 1);

    // The update path flags the same disagreement before applying the
    // confidence state machine to the aliased entry.
    drops = s.stats().tag_alias_drops;
    s.update(alias, comp.combine(50000, 5), 0x4);
    EXPECT_EQ(s.stats().tag_alias_drops, drops + 1);
}

TEST(MetadataStore, ValidEntriesCounterMatchesScanUnderRandomizedOps)
{
    for (StoreRepl kind : {StoreRepl::Lru, StoreRepl::Hawkeye}) {
        MetadataStore s(small_store(kind, 16 * 1024));
        std::mt19937_64 rng(11);
        // Shrink forces rehash-with-overflow, 0 empties the table, and
        // the 1 KB geometry (256 entries) forces steady evictions.
        const std::uint64_t sizes[] = {16 * 1024, 1024, 0, 8 * 1024,
                                       1024};
        for (std::uint64_t bytes : sizes) {
            s.resize(bytes);
            ASSERT_EQ(s.valid_entries(), s.count_valid_entries_slow());
            for (int i = 0; i < 500; ++i) {
                s.update(rng() % 4096 + 1, rng() % 4096 + 1, 0x4);
                ASSERT_EQ(s.valid_entries(),
                          s.count_valid_entries_slow());
            }
        }
    }
}

TEST(MetadataStore, UncompressedModeExactAddresses)
{
    MetadataStoreConfig cfg = small_store();
    cfg.compressed_tags = false;
    MetadataStore s(cfg);
    sim::Addr big = 0xfedcba9876ULL;
    s.update(big, big + 5, 0x1);
    auto lk = s.probe(big);
    ASSERT_TRUE(lk.hit);
    EXPECT_EQ(lk.next, big + 5);
}

TEST(MetadataStore, HawkeyeKeepsHotEntriesUnderThrash)
{
    // Hot set: 64 triggers reused constantly. Cold stream: one-shot
    // triggers that thrash an LRU-managed store.
    auto run = [](StoreRepl kind) {
        MetadataStoreConfig cfg;
        cfg.capacity_bytes = 8192; // 2048 entries -> 128 sets x 16
        cfg.repl = kind;
        MetadataStore s(cfg);
        std::uint64_t hot_hits = 0;
        std::uint64_t cold = 1u << 20;
        for (int round = 0; round < 400; ++round) {
            for (std::uint64_t h = 0; h < 64; ++h) {
                sim::Addr trig = 0x4000 + h;
                auto lk = s.probe(trig);
                if (lk.hit)
                    ++hot_hits;
                s.commit_access(trig, lk, 0x900 + h, true);
                s.update(trig, trig + 1000, 0x900 + h);
            }
            for (int c = 0; c < 64; ++c) {
                sim::Addr trig = cold++;
                auto lk = s.probe(trig);
                s.commit_access(trig, lk, 0x1, true);
                s.update(trig, trig + 1, 0x1);
            }
        }
        return hot_hits;
    };
    auto lru = run(StoreRepl::Lru);
    auto hawkeye = run(StoreRepl::Hawkeye);
    EXPECT_GE(hawkeye, lru);
}

TEST(MetadataStore, ReplStatsCountEventsAndSurviveResize)
{
    MetadataStore s(small_store(StoreRepl::Hawkeye, 4096));
    // update() trains the policy as hidden; demand-path probes commit
    // as visible, per the filtered-training rule.
    for (std::uint64_t t = 0; t < 2000; ++t) {
        s.update(t % 600 + 1, t % 600 + 2, 0x1);
        auto look = s.probe(t % 600 + 1);
        s.commit_access(t % 600 + 1, look, 0x1, /*visible=*/true);
    }
    const cache::ReplStats& r = s.repl_stats();
    EXPECT_GT(r.visible_events, 0u);
    EXPECT_GT(r.hidden_events, 0u);
    EXPECT_GT(r.friendly_inserts + r.averse_inserts, 0u);

    // resize() rebuilds the policy object; the counters live in the
    // store and must keep accumulating instead of resetting or (worse)
    // being written through a dangling pointer.
    const std::uint64_t before = r.visible_events;
    s.resize(8192);
    for (std::uint64_t t = 0; t < 500; ++t) {
        auto look = s.probe(t % 600 + 1);
        s.commit_access(t % 600 + 1, look, 0x1, /*visible=*/true);
    }
    EXPECT_GT(s.repl_stats().visible_events, before);

    // Invisible accesses land in the hidden counter, not the visible
    // one (the filtered-training rule).
    const std::uint64_t vis = s.repl_stats().visible_events;
    const std::uint64_t hid = s.repl_stats().hidden_events;
    auto lk = s.probe(1);
    s.commit_access(1, lk, 0x1, /*visible=*/false);
    EXPECT_EQ(s.repl_stats().visible_events, vis);
    EXPECT_GT(s.repl_stats().hidden_events, hid);
}

TEST(MetadataStore, VisibleHitPredictsBeforeSamplerTrains)
{
    // A 64-byte store is one 16-way set, and Hawkeye samples it. The
    // visible hit on `hot` below is the access on which OPTgen first
    // sees hot's reuse, too far back to keep, so the sampler trains
    // hot's PC from friendly (counter 4) to averse (3). The store must
    // predict the entry's RRPV before that training, keeping it
    // friendly; training first would mark it averse and make it the
    // next victim.
    MetadataStore s(small_store(StoreRepl::Hawkeye, 64));
    const sim::Pc hot_pc = 0x500;
    const sim::Pc cold_pc = 0x900;
    const sim::Addr hot = 7;
    s.update(hot, hot + 1, hot_pc); // way 0
    for (sim::Addr f = 1; f < 16; ++f)
        s.update(1000 + f, 2000 + f, cold_pc); // fill ways 1..15
    ASSERT_EQ(s.valid_entries(), 16u);

    auto visible_access = [&s](sim::Addr trig, sim::Pc pc) {
        const MetaLookup lk = s.probe(trig);
        s.commit_access(trig, lk, pc, /*visible=*/true);
        return lk.hit;
    };
    ASSERT_TRUE(visible_access(hot, hot_pc)); // sampler notes hot_pc
    for (sim::Addr c = 0; c < 200; ++c)       // past the OPTgen window
        ASSERT_FALSE(visible_access(50000 + c, cold_pc));
    ASSERT_TRUE(visible_access(hot, hot_pc));

    const auto* hawkeye =
        dynamic_cast<const replacement::Hawkeye*>(s.repl());
    ASSERT_NE(hawkeye, nullptr);
    ASSERT_EQ(hawkeye->predictor().counter(hot_pc), 3) << "setup";

    s.update(90000, 90001, cold_pc); // full set: evicts one entry
    EXPECT_TRUE(s.probe(hot).hit);
}

namespace {

// ---------------------------------------------------------------------
// Reference metadata policies: the store's former policy stack, kept
// verbatim (MetaRepl with MetaLru and MetaHawkeye, visible flag and
// all) so the differential test below can pin the store's calls into
// cache::ReplacementPolicy to the exact decisions and counters of the
// interface it replaced.
// ---------------------------------------------------------------------

struct MetaReplStats {
    std::uint64_t visible_events = 0; ///< accesses that trained OPTgen
    std::uint64_t hidden_events = 0;  ///< filtered out (redundant pf)
    std::uint64_t optgen_hits = 0;    ///< sampled accesses OPT would hit
    std::uint64_t optgen_misses = 0;
    std::uint64_t friendly_inserts = 0; ///< predictor said cache-friendly
    std::uint64_t averse_inserts = 0;   ///< inserted at distant RRPV
    std::uint64_t victim_demotions = 0; ///< victim without a distant entry
};

/** Replacement policy over a sets x ways metadata store. */
class MetaRepl
{
  public:
    virtual ~MetaRepl() = default;

    /**
     * A resident entry was accessed.
     * @p visible gates OPTgen / predictor training (false for accesses
     * that produced a redundant prefetch); per-entry state always
     * updates.
     */
    virtual void on_hit(std::uint32_t set, std::uint32_t way,
                        std::uint64_t key, sim::Pc pc, bool visible) = 0;

    /** An access found no entry (trains history-based policies). */
    virtual void on_miss(std::uint32_t set, std::uint64_t key, sim::Pc pc,
                         bool visible) = 0;

    /** A new entry was installed at @p way. */
    virtual void on_insert(std::uint32_t set, std::uint32_t way,
                           std::uint64_t key, sim::Pc pc) = 0;

    virtual void on_invalidate(std::uint32_t set, std::uint32_t way) = 0;

    /** Choose a victim among [0, ways). */
    virtual std::uint32_t victim(std::uint32_t set) = 0;

    virtual const char* name() const = 0;

    /**
     * Wall-clock-only hint: pull the policy's per-set rows toward the
     * host cache ahead of an access to @p set (the metadata-store
     * prefetch hint fans out here). No simulated effect.
     */
    virtual void prefetch_hint(std::uint32_t set) const { (void)set; }

    /**
     * Save/restore the policy's mutable state (stamps / RRIP +
     * predictor + samplers). The bound MetaReplStats block is owned and
     * serialized by the MetadataStore, not here.
     */
    virtual void checkpoint(sim::Snapshot& s) = 0;

    /** Attach (or detach, with null) externally-owned counters. */
    void bind_stats(MetaReplStats* stats) { stats_ = stats; }

  protected:
    MetaReplStats* stats_ = nullptr;
};

/** LRU metadata replacement (the Figure 9 baseline). */
class MetaLru final : public MetaRepl
{
  public:
    MetaLru(std::uint32_t sets, std::uint32_t ways);

    void on_hit(std::uint32_t set, std::uint32_t way, std::uint64_t key,
                sim::Pc pc, bool visible) override;
    void on_miss(std::uint32_t set, std::uint64_t key, sim::Pc pc,
                 bool visible) override;
    void on_insert(std::uint32_t set, std::uint32_t way, std::uint64_t key,
                   sim::Pc pc) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set) override;
    const char* name() const override { return "lru"; }

    void
    prefetch_hint(std::uint32_t set) const override
    {
        __builtin_prefetch(stamps_.data() + std::size_t{set} * ways_, 1);
    }

    void
    checkpoint(sim::Snapshot& s) override
    {
        s.section("meta_repl.lru");
        s.io(clock_);
        s.io_pod_vec(stamps_);
    }

  private:
    std::uint32_t ways_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamps_;
};

/** Triage's filtered-training Hawkeye for metadata. */
class MetaHawkeye final : public MetaRepl
{
  public:
    /**
     * @param sampled_sets how many sets feed OPTgen.
     * @param history_factor OPTgen window as a multiple of ways.
     */
    MetaHawkeye(std::uint32_t sets, std::uint32_t ways,
                std::uint32_t sampled_sets = 64,
                std::uint32_t history_factor = 8);

    void on_hit(std::uint32_t set, std::uint32_t way, std::uint64_t key,
                sim::Pc pc, bool visible) override;
    void on_miss(std::uint32_t set, std::uint64_t key, sim::Pc pc,
                 bool visible) override;
    void on_insert(std::uint32_t set, std::uint32_t way, std::uint64_t key,
                   sim::Pc pc) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set) override;
    const char* name() const override { return "hawkeye"; }

    void
    prefetch_hint(std::uint32_t set) const override
    {
        // Every on_hit/on_miss/on_insert reads this set's RRPV row and
        // most write the predictor-slot row; both live in large arrays
        // indexed by a hashed set, so they are rarely host-resident.
        __builtin_prefetch(rrpv_.data() + std::size_t{set} * ways_, 1);
        __builtin_prefetch(pc_slots_.data() + std::size_t{set} * ways_, 1);
    }

    const replacement::HawkeyePredictor& predictor() const
    {
        return predictor_;
    }

    void
    checkpoint(sim::Snapshot& s) override
    {
        s.section("meta_repl.hawkeye");
        predictor_.checkpoint(s);
        for (auto& sampled : samplers_) {
            sampled.optgen.checkpoint(s);
            s.io_flat_map(sampled.last_pc);
        }
        s.io_pod_vec(rrpv_);
        s.io_pod_vec(pc_slots_);
    }

  private:
    static constexpr std::uint8_t MAX_RRPV = 7;

    struct SampledSet {
        replacement::OptGen optgen;
        util::FlatMap<std::uint64_t, sim::Pc> last_pc;

        SampledSet(std::uint32_t ways, std::uint32_t factor)
            : optgen(ways, factor)
        {}
    };

    bool is_sampled(std::uint32_t set) const;
    void sample(std::uint32_t set, std::uint64_t key, sim::Pc pc);
    std::uint8_t& rrpv(std::uint32_t set, std::uint32_t way);
    /** Predictor slot of the PC that last touched (set, way). */
    std::uint16_t& pc_slot(std::uint32_t set, std::uint32_t way);

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t sample_shift_;
    std::uint32_t sample_mask_;
    std::uint32_t history_factor_;
    replacement::HawkeyePredictor predictor_;
    std::vector<SampledSet> samplers_;
    std::vector<std::uint8_t> rrpv_;
    /**
     * Per entry, predictor_.slot_of() of its last PC rather than the
     * 8-byte PC: victim()'s train_negative is the only reader, and it
     * needs nothing else.
     */
    std::vector<std::uint16_t> pc_slots_;
};

MetaLru::MetaLru(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways), stamps_(static_cast<std::size_t>(sets) * ways, 0)
{
}

void
MetaLru::on_hit(std::uint32_t set, std::uint32_t way, std::uint64_t,
                sim::Pc, bool visible)
{
    stamps_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
    if (stats_ != nullptr)
        ++(visible ? stats_->visible_events : stats_->hidden_events);
}

void
MetaLru::on_miss(std::uint32_t, std::uint64_t, sim::Pc, bool visible)
{
    if (stats_ != nullptr)
        ++(visible ? stats_->visible_events : stats_->hidden_events);
}

void
MetaLru::on_insert(std::uint32_t set, std::uint32_t way, std::uint64_t,
                   sim::Pc)
{
    stamps_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
}

void
MetaLru::on_invalidate(std::uint32_t set, std::uint32_t way)
{
    stamps_[static_cast<std::size_t>(set) * ways_ + way] = 0;
}

std::uint32_t
MetaLru::victim(std::uint32_t set)
{
    std::uint32_t best = 0;
    std::uint64_t best_stamp =
        stamps_[static_cast<std::size_t>(set) * ways_];
    for (std::uint32_t w = 1; w < ways_; ++w) {
        std::uint64_t s = stamps_[static_cast<std::size_t>(set) * ways_ + w];
        if (s < best_stamp) {
            best_stamp = s;
            best = w;
        }
    }
    return best;
}

MetaHawkeye::MetaHawkeye(std::uint32_t sets, std::uint32_t ways,
                         std::uint32_t sampled_sets,
                         std::uint32_t history_factor)
    : sets_(sets), ways_(ways), history_factor_(history_factor),
      rrpv_(static_cast<std::size_t>(sets) * ways, MAX_RRPV)
{
    TRIAGE_ASSERT(util::is_pow2(sets_));
    TRIAGE_ASSERT(predictor_.entries() <= 65536,
                  "predictor slots are stored in 16 bits");
    pc_slots_.assign(static_cast<std::size_t>(sets) * ways,
                     static_cast<std::uint16_t>(predictor_.slot_of(0)));
    // floor_pow2, not a decrement loop: with sampled_sets == 0 the old
    // `while (!is_pow2(n)) --n;` underflowed to 0xFFFFFFFF and spun
    // ~2^31 iterations before producing a bogus shift.
    TRIAGE_ASSERT(sampled_sets > 0,
                  "MetaHawkeye needs at least one sampled set");
    auto n = static_cast<std::uint32_t>(
        util::floor_pow2(std::min(sampled_sets, sets_)));
    sample_shift_ = util::log2_exact(sets_ / n);
    sample_mask_ = (1u << sample_shift_) - 1;
    samplers_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        samplers_.emplace_back(ways_, history_factor_);
}

bool
MetaHawkeye::is_sampled(std::uint32_t set) const
{
    return (set & sample_mask_) == 0;
}

std::uint8_t&
MetaHawkeye::rrpv(std::uint32_t set, std::uint32_t way)
{
    return rrpv_[static_cast<std::size_t>(set) * ways_ + way];
}

std::uint16_t&
MetaHawkeye::pc_slot(std::uint32_t set, std::uint32_t way)
{
    return pc_slots_[static_cast<std::size_t>(set) * ways_ + way];
}

void
MetaHawkeye::sample(std::uint32_t set, std::uint64_t key, sim::Pc pc)
{
    SampledSet& s = samplers_[set >> sample_shift_];
    bool opt_hit = s.optgen.access(key);
    if (stats_ != nullptr)
        ++(opt_hit ? stats_->optgen_hits : stats_->optgen_misses);
    sim::Pc* it = s.last_pc.find(key);
    if (it != nullptr) {
        if (opt_hit)
            predictor_.train_positive(*it);
        else
            predictor_.train_negative(*it);
        *it = pc;
    } else {
        s.last_pc.ref(key) = pc;
    }
    if (s.last_pc.size() > 16ULL * ways_ * history_factor_)
        s.last_pc.clear();
}

void
MetaHawkeye::on_hit(std::uint32_t set, std::uint32_t way,
                    std::uint64_t key, sim::Pc pc, bool visible)
{
    // Per-entry state always reflects the latest access...
    rrpv(set, way) = predictor_.predict(pc) ? 0 : MAX_RRPV;
    pc_slot(set, way) = static_cast<std::uint16_t>(predictor_.slot_of(pc));
    if (stats_ != nullptr)
        ++(visible ? stats_->visible_events : stats_->hidden_events);
    // ...but OPTgen and the predictor only see useful reuse.
    if (visible && is_sampled(set))
        sample(set, key, pc);
}

void
MetaHawkeye::on_miss(std::uint32_t set, std::uint64_t key, sim::Pc pc,
                     bool visible)
{
    if (stats_ != nullptr)
        ++(visible ? stats_->visible_events : stats_->hidden_events);
    if (visible && is_sampled(set))
        sample(set, key, pc);
}

void
MetaHawkeye::on_insert(std::uint32_t set, std::uint32_t way,
                       std::uint64_t key, sim::Pc pc)
{
    (void)key;
    pc_slot(set, way) = static_cast<std::uint16_t>(predictor_.slot_of(pc));
    bool friendly = predictor_.predict(pc);
    if (stats_ != nullptr)
        ++(friendly ? stats_->friendly_inserts : stats_->averse_inserts);
    if (friendly) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (w == way)
                continue;
            auto& r = rrpv(set, w);
            if (r < MAX_RRPV - 1)
                ++r;
        }
        rrpv(set, way) = 0;
    } else {
        rrpv(set, way) = MAX_RRPV;
    }
}

void
MetaHawkeye::on_invalidate(std::uint32_t set, std::uint32_t way)
{
    rrpv(set, way) = MAX_RRPV;
    pc_slot(set, way) = static_cast<std::uint16_t>(predictor_.slot_of(0));
}

std::uint32_t
MetaHawkeye::victim(std::uint32_t set)
{
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (rrpv(set, w) == MAX_RRPV)
            return w;
    }
    std::uint32_t best = 0;
    std::uint8_t best_rrpv = rrpv(set, 0);
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (rrpv(set, w) > best_rrpv) {
            best_rrpv = rrpv(set, w);
            best = w;
        }
    }
    if (stats_ != nullptr)
        ++stats_->victim_demotions;
    predictor_.train_negative_slot(pc_slot(set, best));
    return best;
}

/**
 * Reference copy of the store's earlier design: a 32-byte Entry
 * holding every modelled field (trigger and successor ctags, successor
 * set id, confidence, valid) beside the two full-address mirrors,
 * survivors copied out on resize, and the reference policies above in
 * place of cache::ReplacementPolicy. The differential test below runs
 * it in lockstep with MetadataStore; only TagCompressor is shared.
 */
class ReferenceStore
{
  public:
    explicit ReferenceStore(MetadataStoreConfig cfg) : cfg_(cfg)
    {
        build(cfg.capacity_bytes);
    }

    MetaLookup
    probe(sim::Addr trigger)
    {
        ++stats_.lookups;
        MetaLookup lk;
        if (sets_ == 0)
            return lk;
        const std::uint32_t set = set_of(trigger);
        std::uint32_t way = NO_WAY;
        if (cfg_.compressed_tags) {
            auto id = comp_.find(comp_.tag_of(trigger));
            if (!id.has_value())
                return lk;
            way = find_way(set, key(comp_.set_of(trigger), *id));
        } else {
            way = find_way(set, trigger);
        }
        if (way == NO_WAY)
            return lk;
        const Entry& e = entries_[std::size_t{set} * LINE_ENTRIES + way];
        if (e.full_trigger != trigger)
            ++stats_.tag_alias_drops;
        lk.hit = true;
        lk.confident = e.confident;
        lk.set = set;
        lk.way = way;
        lk.next = cfg_.compressed_tags
                      ? comp_.combine(comp_.decompress(e.next_ctag),
                                      e.next_set)
                      : e.full_next;
        ++stats_.hits;
        return lk;
    }

    void
    commit_access(sim::Addr trigger, const MetaLookup& lk, sim::Pc pc,
                  bool visible)
    {
        if (repl_ == nullptr)
            return;
        if (lk.hit)
            repl_->on_hit(lk.set, lk.way, trigger, pc, visible);
        else
            repl_->on_miss(set_of(trigger), trigger, pc, visible);
    }

    void
    update(sim::Addr trigger, sim::Addr next, sim::Pc pc)
    {
        if (sets_ == 0)
            return;
        ++stats_.updates;
        const std::uint32_t set = set_of(trigger);
        const std::size_t base = std::size_t{set} * LINE_ENTRIES;
        const std::uint64_t trig_tag = comp_.tag_of(trigger);
        std::uint32_t way = NO_WAY;
        if (cfg_.compressed_tags) {
            if (auto id = comp_.find(trig_tag))
                way = find_way(set, key(comp_.set_of(trigger), *id));
        } else {
            way = find_way(set, trigger);
        }
        if (way != NO_WAY) {
            Entry& e = entries_[base + way];
            if (e.full_trigger != trigger)
                ++stats_.tag_alias_drops;
            if (e.full_next == next) {
                e.confident = true;
            } else if (e.confident) {
                e.confident = false;
            } else {
                ++stats_.confidence_flips;
                e.full_next = next;
                if (cfg_.compressed_tags) {
                    e.next_ctag = comp_.compress(comp_.tag_of(next));
                    e.next_set = comp_.set_of(next);
                }
                e.confident = false;
            }
            repl_->on_hit(set, way, trigger, pc, false);
            return;
        }
        std::uint32_t target = NO_WAY;
        for (std::uint32_t w = 0; w < LINE_ENTRIES; ++w) {
            if (!entries_[base + w].valid) {
                target = w;
                break;
            }
        }
        if (target == NO_WAY) {
            target = repl_->victim(set);
            repl_->on_invalidate(set, target);
            ++stats_.evictions;
        }
        Entry& n = entries_[base + target];
        n.full_trigger = trigger;
        n.full_next = next;
        n.confident = false;
        n.valid = true;
        if (cfg_.compressed_tags) {
            n.trigger_ctag = comp_.compress(trig_tag);
            n.next_ctag = comp_.compress(comp_.tag_of(next));
            n.next_set = comp_.set_of(next);
        }
        repl_->on_insert(set, target, trigger, pc);
        ++stats_.inserts;
    }

    void
    resize(std::uint64_t bytes)
    {
        if (bytes == capacity_bytes_)
            return;
        std::vector<Entry> survivors;
        for (const Entry& e : entries_) {
            if (e.valid)
                survivors.push_back(e);
        }
        build(bytes);
        if (sets_ == 0)
            return;
        for (const Entry& e : survivors) {
            const std::uint32_t set = set_of(e.full_trigger);
            const std::size_t base = std::size_t{set} * LINE_ENTRIES;
            for (std::uint32_t w = 0; w < LINE_ENTRIES; ++w) {
                if (!entries_[base + w].valid) {
                    entries_[base + w] = e;
                    repl_->on_insert(set, w, e.full_trigger, 0);
                    break;
                }
            }
        }
    }

    std::uint64_t
    valid_entries() const
    {
        std::uint64_t n = 0;
        for (const Entry& e : entries_)
            n += e.valid ? 1 : 0;
        return n;
    }

    const MetadataStoreStats& stats() const { return stats_; }
    const MetaReplStats& repl_stats() const { return repl_stats_; }
    std::uint64_t recycles() const { return comp_.recycles(); }

  private:
    struct Entry {
        std::uint16_t trigger_ctag = 0;
        std::uint16_t next_ctag = 0;
        std::uint32_t next_set = 0;
        bool confident = false;
        bool valid = false;
        sim::Addr full_trigger = 0;
        sim::Addr full_next = 0;
    };
    static_assert(sizeof(Entry) == 32);
    static constexpr std::uint32_t NO_WAY = ~std::uint32_t{0};

    static std::uint64_t
    key(std::uint32_t trig_set, std::uint16_t ctag)
    {
        return (std::uint64_t{trig_set} << 16) | ctag;
    }

    std::uint32_t
    set_of(sim::Addr trigger) const
    {
        return static_cast<std::uint32_t>(util::mix64(trigger)) &
               (sets_ - 1);
    }

    std::uint32_t
    find_way(std::uint32_t set, std::uint64_t k) const
    {
        const std::size_t base = std::size_t{set} * LINE_ENTRIES;
        for (std::uint32_t w = 0; w < LINE_ENTRIES; ++w) {
            const Entry& e = entries_[base + w];
            if (!e.valid)
                continue;
            const std::uint64_t ek =
                cfg_.compressed_tags
                    ? key(comp_.set_of(e.full_trigger), e.trigger_ctag)
                    : e.full_trigger;
            if (ek == k)
                return w;
        }
        return NO_WAY;
    }

    void
    build(std::uint64_t bytes)
    {
        capacity_bytes_ = bytes;
        const std::uint64_t n_sets =
            bytes / ENTRY_BYTES / LINE_ENTRIES;
        sets_ = n_sets == 0
                    ? 0
                    : static_cast<std::uint32_t>(util::floor_pow2(n_sets));
        entries_.assign(std::size_t{sets_} * LINE_ENTRIES, Entry{});
        repl_.reset();
        if (sets_ == 0)
            return;
        if (cfg_.repl == StoreRepl::Hawkeye)
            repl_ = std::make_unique<MetaHawkeye>(sets_, LINE_ENTRIES);
        else
            repl_ = std::make_unique<MetaLru>(sets_, LINE_ENTRIES);
        repl_->bind_stats(&repl_stats_);
    }

    MetadataStoreConfig cfg_;
    std::uint64_t capacity_bytes_ = 0;
    std::uint32_t sets_ = 0;
    std::vector<Entry> entries_;
    std::unique_ptr<MetaRepl> repl_;
    TagCompressor comp_;
    MetadataStoreStats stats_;
    MetaReplStats repl_stats_;
};

auto
fields(const MetadataStoreStats& s)
{
    return std::make_tuple(s.lookups, s.hits, s.updates, s.inserts,
                           s.evictions, s.confidence_flips,
                           s.tag_alias_drops);
}

template <typename Stats> // cache::ReplStats or the reference's
auto
fields(const Stats& s)
{
    return std::make_tuple(s.visible_events, s.hidden_events,
                           s.optgen_hits, s.optgen_misses,
                           s.friendly_inserts, s.averse_inserts,
                           s.victim_demotions);
}

auto
fields(const MetaLookup& lk)
{
    return std::make_tuple(lk.hit, lk.confident, lk.next, lk.set, lk.way);
}

/** Every store check a test can run, as a list of reports. */
std::vector<std::string>
self_check_reports(const MetadataStore& s)
{
    std::vector<std::string> out;
    s.self_check([&out](const std::string& r) { out.push_back(r); });
    return out;
}

/**
 * Run @p ops random operations on @p s and @p ref in lockstep and
 * compare every result and counter after each. Cold triggers carry
 * 2^11 tags (against 2^10 compressed ids) over only 2 low-bit set ids,
 * so ids recycle and compressed keys alias; 64 PCs reuse predictor
 * slots. With @p sizes non-empty, 2 ops in 1000 resize both stores to
 * a size drawn from it.
 */
void
run_lockstep(MetadataStore& s, ReferenceStore& ref, util::Rng& rng,
             std::uint32_t ops, std::span<const std::uint64_t> sizes)
{
    for (std::uint32_t i = 0; i < ops; ++i) {
        // A small hot set keeps confidence and Hawkeye training busy
        // beside the wide cold range.
        auto cold = [&rng] {
            return (sim::Addr{rng.next_below(1u << 11)} << 11) |
                   rng.next_below(2);
        };
        const sim::Addr trig =
            rng.next_below(4) == 0 ? rng.next_below(512) + 1 : cold();
        const sim::Addr next = rng.next_below(3) == 0 ? trig + 1 : cold();
        const sim::Pc pc = 0x400 + 4 * rng.next_below(64);
        const std::uint32_t op = rng.next_below(1000);
        if (op < 450) {
            const MetaLookup got = s.probe(trig);
            const MetaLookup want = ref.probe(trig);
            ASSERT_EQ(fields(got), fields(want)) << "op " << i;
            const bool visible = rng.next_below(4) != 0;
            s.commit_access(trig, got, pc, visible);
            ref.commit_access(trig, want, pc, visible);
        } else if (op < 998 || sizes.empty()) {
            s.update(trig, next, pc);
            ref.update(trig, next, pc);
        } else {
            const std::uint64_t bytes =
                sizes[rng.next_below(sizes.size())];
            s.resize(bytes);
            ref.resize(bytes);
        }
        ASSERT_EQ(fields(s.stats()), fields(ref.stats())) << "op " << i;
        ASSERT_EQ(fields(s.repl_stats()), fields(ref.repl_stats()))
            << "op " << i;
        ASSERT_EQ(s.valid_entries(), ref.valid_entries()) << "op " << i;
    }
}

std::string
variant_name(bool compressed, StoreRepl kind)
{
    return std::string(compressed ? "compressed " : "nocompress ") +
           (kind == StoreRepl::Hawkeye ? "hawkeye" : "lru");
}

} // namespace

TEST(MetadataStore, MatchesReferenceLayoutUnderRandomizedOps)
{
    // Resizes grow, shrink, empty and regrow the table with live
    // entries in it.
    const std::uint64_t sizes[] = {8 * 1024, 16 * 1024, 0, 4096,
                                   64 * 1024, 2048, 32 * 1024};
    for (bool compressed : {true, false}) {
        for (StoreRepl kind : {StoreRepl::Hawkeye, StoreRepl::Lru}) {
            SCOPED_TRACE(variant_name(compressed, kind));
            MetadataStoreConfig cfg = small_store(kind, 8 * 1024);
            cfg.compressed_tags = compressed;
            MetadataStore s(cfg);
            ReferenceStore ref(cfg);
            util::Rng rng(compressed ? 21 : 22);
            ASSERT_NO_FATAL_FAILURE(run_lockstep(s, ref, rng, 60000, sizes));
            EXPECT_EQ(s.compressor().recycles(), ref.recycles());
            EXPECT_TRUE(self_check_reports(s).empty());
            // The mix must reach every path it claims to cover.
            EXPECT_GT(s.stats().evictions, 0u);
            EXPECT_GT(s.stats().confidence_flips, 0u);
            if (compressed) {
                EXPECT_GT(s.stats().tag_alias_drops, 0u);
                EXPECT_GT(s.compressor().recycles(), 0u);
            }
            if (kind == StoreRepl::Hawkeye)
                EXPECT_GT(s.repl_stats().victim_demotions, 0u);
        }
    }
}

TEST(MetadataStore, MatchesReferenceAcrossQuarterAndZeroResizes)
{
    // The in-place rehash against the reference's copy-out rehash at
    // the ratios it has to get right: x4 (each old set feeds four new
    // ones), /4 (four old sets feed one, overflow dropped), to 0 and
    // back, and a regrow from below the construction size.
    const std::uint64_t schedule[] = {64 * 1024, 16 * 1024, 4096, 0,
                                      16 * 1024, 64 * 1024};
    for (bool compressed : {true, false}) {
        for (StoreRepl kind : {StoreRepl::Hawkeye, StoreRepl::Lru}) {
            SCOPED_TRACE(variant_name(compressed, kind));
            MetadataStoreConfig cfg = small_store(kind, 16 * 1024);
            cfg.compressed_tags = compressed;
            MetadataStore s(cfg);
            ReferenceStore ref(cfg);
            util::Rng rng(compressed ? 23 : 24);
            ASSERT_NO_FATAL_FAILURE(run_lockstep(s, ref, rng, 8000, {}));
            for (std::uint64_t bytes : schedule) {
                SCOPED_TRACE("resize to " + std::to_string(bytes));
                const std::uint64_t live = s.valid_entries();
                s.resize(bytes);
                ref.resize(bytes);
                ASSERT_EQ(s.valid_entries(), ref.valid_entries());
                if (bytes < 16 * 1024 && live > 0)
                    EXPECT_LT(s.valid_entries(), live) << "shrink dropped nothing";
                EXPECT_TRUE(self_check_reports(s).empty());
                ASSERT_NO_FATAL_FAILURE(
                    run_lockstep(s, ref, rng, 8000, {}));
            }
        }
    }
}

TEST(MetadataStore, UncompressedFoldCollisionFindsBothTriggers)
{
    // The uncompressed key is a 32-bit fold of the trigger, so two
    // triggers can share one. A 64-byte store is a single set, so both
    // land in it: each must still find its own entry, a third trigger
    // with the same fold must miss, and updates must reach the entry
    // holding the trigger, not the first key match.
    MetadataStoreConfig cfg = small_store(StoreRepl::Lru, 64);
    cfg.compressed_tags = false;
    MetadataStore s(cfg);
    const sim::Addr a = (sim::Addr{1} << 32) | 5; // folds to 4
    const sim::Addr b = 4;                        // folds to 4
    const sim::Addr c = (sim::Addr{2} << 32) | 6; // folds to 4
    s.update(a, 100, 0x1);
    s.update(b, 200, 0x1);
    const MetaLookup la = s.probe(a);
    const MetaLookup lb = s.probe(b);
    ASSERT_TRUE(la.hit);
    ASSERT_TRUE(lb.hit);
    EXPECT_EQ(la.next, 100u);
    EXPECT_EQ(lb.next, 200u);
    EXPECT_EQ(la.way, 0u);
    EXPECT_EQ(lb.way, 1u);
    EXPECT_FALSE(s.probe(c).hit);
    s.update(b, 200, 0x1); // confirms b's own entry
    EXPECT_TRUE(s.probe(b).confident);
    EXPECT_FALSE(s.probe(a).confident);
    EXPECT_EQ(s.valid_entries(), 2u);
    EXPECT_EQ(s.stats().tag_alias_drops, 0u);
    EXPECT_TRUE(self_check_reports(s).empty());
}

TEST(MetadataStore, ResizeWithinCapacityKeepsStorage)
{
    // resize() allocates nothing while the new geometry fits the
    // capacity the store has held: a shrink keeps the arrays, and a
    // regrow up to the construction size reuses them.
    MetadataStore s(small_store(StoreRepl::Hawkeye, 64 * 1024));
    for (std::uint64_t t = 1; t <= 20000; ++t)
        s.update(t * 977, t, 0x1);
    const void* storage = s.entries_data();
    for (std::uint64_t bytes : {16 * 1024, 0, 32 * 1024, 64 * 1024}) {
        s.resize(bytes);
        EXPECT_EQ(s.entries_data(), storage) << bytes << " bytes";
        EXPECT_TRUE(self_check_reports(s).empty());
    }
    EXPECT_GT(s.capacity_entries(), 0u);
}

TEST(MetadataStore, CheckpointAfterShrinkResavesIdentically)
{
    // Save a store whose geometry came from a shrinking resize and load
    // it into one built at the configured (larger) size: the load must
    // rebuild the smaller geometry, reproduce the same lookups, pass
    // the self-check and resave to the same bytes.
    for (StoreRepl kind : {StoreRepl::Hawkeye, StoreRepl::Lru}) {
        const MetadataStoreConfig cfg = small_store(kind, 64 * 1024);
        MetadataStore s(cfg);
        util::Rng rng(31);
        for (int i = 0; i < 30000; ++i) {
            const sim::Addr trig = rng.next_below(1u << 16);
            const MetaLookup lk = s.probe(trig);
            s.commit_access(trig, lk, 0x400 + rng.next_below(16), true);
            s.update(trig, rng.next_below(1u << 16), 0x400 + rng.next_below(16));
        }
        s.resize(8 * 1024);
        ASSERT_GT(s.valid_entries(), 0u);

        sim::Snapshot save;
        s.checkpoint(save);
        const sim::SnapshotBlob blob = save.seal(1, "store");

        MetadataStore restored(cfg);
        sim::Snapshot load;
        ASSERT_TRUE(sim::Snapshot::open(blob, 1, "store", load));
        restored.checkpoint(load);
        EXPECT_TRUE(load.exhausted());
        EXPECT_EQ(restored.capacity_bytes(), 8u * 1024);
        EXPECT_EQ(restored.valid_entries(), s.valid_entries());
        EXPECT_TRUE(self_check_reports(restored).empty());

        sim::Snapshot resave;
        restored.checkpoint(resave);
        EXPECT_EQ(resave.seal(1, "store"), blob);

        for (sim::Addr trig = 0; trig < 4096; ++trig)
            ASSERT_EQ(fields(restored.probe(trig)), fields(s.probe(trig)));
    }
}

TEST(MetadataStore, HawkeyePredictorTrainsSameTableThroughSlots)
{
    // Hawkeye keeps each entry's predictor slot instead of its PC;
    // training a slot must move exactly the counter the PC would. The
    // plain model pins the PC hash: 3-bit counters from 4, indexed by
    // mix64(pc) mod the table size.
    replacement::HawkeyePredictor by_pc;
    replacement::HawkeyePredictor by_slot;
    std::vector<int> model(by_pc.entries(), 4);
    util::Rng rng(41);
    std::vector<sim::Pc> pcs;
    for (int i = 0; i < 20000; ++i)
        pcs.push_back(rng.next_u64() >> rng.next_below(64));
    for (int i = 0; i < 200000; ++i) {
        const sim::Pc pc = pcs[rng.next_below(pcs.size())];
        const std::uint32_t slot = by_slot.slot_of(pc);
        int& m = model[util::mix64(pc) % model.size()];
        if (rng.next_below(2) == 0) {
            by_pc.train_positive(pc);
            by_slot.train_positive_slot(slot);
            m = std::min(m + 1, 7);
        } else {
            by_pc.train_negative(pc);
            by_slot.train_negative_slot(slot);
            m = std::max(m - 1, 0);
        }
    }
    for (sim::Pc pc : pcs) {
        ASSERT_EQ(by_pc.counter(pc), model[util::mix64(pc) % model.size()]);
        ASSERT_EQ(by_slot.counter(pc), by_pc.counter(pc));
        ASSERT_EQ(by_slot.predict(pc), by_pc.predict(pc));
    }
    sim::Snapshot a;
    by_pc.checkpoint(a);
    sim::Snapshot b;
    by_slot.checkpoint(b);
    EXPECT_EQ(a.seal(1, "p"), b.seal(1, "p"));
}

// ---------------------------------------------------------------------
// PartitionController
// ---------------------------------------------------------------------

namespace {

PartitionConfig
fast_partition()
{
    PartitionConfig cfg;
    cfg.epoch_accesses = 2000;
    cfg.sample_shift = 2; // dense sampling for short tests
    return cfg;
}

} // namespace

TEST(Partition, ShrinksToZeroWithoutReuse)
{
    PartitionController pc(fast_partition());
    EXPECT_EQ(pc.size_bytes(), 1024u * 1024u); // starts at max
    sim::Addr a = 0;
    for (int i = 0; i < 8000; ++i)
        pc.observe(a++); // no reuse at all
    EXPECT_EQ(pc.level(), 0u);
    EXPECT_EQ(pc.size_bytes(), 0u);
}

TEST(Partition, StaysSmallWhenSmallSizeSuffices)
{
    auto cfg = fast_partition();
    PartitionController pc(cfg);
    // Working set fits comfortably in the 512 KB sandbox: hit rates at
    // 512 KB and 1 MB are equal, so the controller settles at 512 KB.
    std::uint64_t ws = (512 * 1024 / 4) >> cfg.sample_shift; // sampled cap
    ws /= 4; // stay well inside
    for (int i = 0; i < 30000; ++i)
        pc.observe(i % ws);
    EXPECT_EQ(pc.size_bytes(), 512u * 1024u);
}

TEST(Partition, GrowsWhenLargeStorePays)
{
    // Production sampling rate (1-in-256) so sandbox OPTgen intervals
    // stay small; a long epoch gives each epoch enough samples.
    PartitionConfig cfg;
    cfg.epoch_accesses = 50000;
    cfg.initial_level = 1;
    PartitionController pc(cfg);
    // A uniformly random working set that thrashes a 512 KB store but
    // fits 1 MB (a strictly cyclic stream would make per-epoch OPT hit
    // rates phase-oscillate). The sandboxes sample 1-in-2^k of
    // *distinct* triggers, so the working set is sized against the
    // full store capacities.
    std::uint64_t cap512_entries = 512 * 1024 / 4; // 131072
    std::uint64_t ws = cap512_entries + cap512_entries * 3 / 4;
    util::Rng rng(4242);
    for (std::uint64_t i = 0; i < 14 * ws; ++i)
        pc.observe(rng.next_below(static_cast<std::uint32_t>(ws)));
    EXPECT_EQ(pc.size_bytes(), 1024u * 1024u)
        << "rates: " << pc.last_hit_rates()[0] << " / "
        << pc.last_hit_rates()[1];
}

TEST(Partition, EpochBoundaryReported)
{
    auto cfg = fast_partition();
    PartitionController pc(cfg);
    int epochs = 0;
    for (int i = 0; i < 6001; ++i) {
        if (pc.observe(i))
            ++epochs;
    }
    EXPECT_EQ(epochs, 3);
    EXPECT_EQ(pc.epochs(), 3u);
}

TEST(Partition, DecisionStatsPartitionEpochsAndTimelineReplaysThem)
{
    auto cfg = fast_partition();
    PartitionController pc(cfg);
    obs::PartitionTimeline tl;
    tl.reset(1);
    pc.set_timeline(&tl, 0);
    sim::Addr a = 0;
    for (int i = 0; i < 8000; ++i)
        pc.observe(a++); // no reuse: walks the ladder down to 0

    const PartitionDecisionStats d = pc.decision_stats();
    EXPECT_EQ(d.epochs, pc.epochs());
    EXPECT_GT(d.epochs, 0u);
    // Every epoch lands in exactly one outcome bucket.
    EXPECT_EQ(d.warmup_epochs + d.holds + d.pending + d.changes +
                  d.cooldown_suppressed,
              d.epochs);
    EXPECT_GT(d.changes, 0u); // it did shrink
    EXPECT_EQ(pc.level(), 0u);

    // One timeline sample per epoch, in epoch order, all core 0, one
    // sandbox hit rate per candidate size; the last sample agrees with
    // the controller's final state.
    ASSERT_EQ(tl.samples().size(), d.epochs);
    std::uint64_t prev_epoch = 0;
    for (const obs::PartitionSample& s : tl.samples()) {
        EXPECT_EQ(s.core, 0u);
        EXPECT_GT(s.epoch, prev_epoch);
        prev_epoch = s.epoch;
        EXPECT_EQ(s.hit_rates.size(), cfg.sizes.size());
    }
    // The timeline's event mix replays the decision-stat counters
    // exactly (a gated epoch also counts as pending).
    std::uint64_t by_event[static_cast<int>(
        obs::PartitionEvent::NumEvents)] = {};
    for (const obs::PartitionSample& s : tl.samples())
        ++by_event[static_cast<int>(s.event)];
    EXPECT_EQ(by_event[static_cast<int>(obs::PartitionEvent::Warmup)],
              d.warmup_epochs);
    EXPECT_EQ(by_event[static_cast<int>(obs::PartitionEvent::Hold)],
              d.holds);
    EXPECT_EQ(by_event[static_cast<int>(obs::PartitionEvent::Changed)],
              d.changes);
    EXPECT_EQ(by_event[static_cast<int>(obs::PartitionEvent::Pending)] +
                  by_event[static_cast<int>(obs::PartitionEvent::Gated)],
              d.pending);
    EXPECT_EQ(by_event[static_cast<int>(obs::PartitionEvent::Cooldown)],
              d.cooldown_suppressed);
    EXPECT_EQ(tl.samples().back().level, pc.level());
    EXPECT_EQ(tl.samples().back().size_bytes, pc.size_bytes());

    // Detached, further epochs leave the timeline untouched.
    pc.set_timeline(nullptr, 0);
    for (int i = 0; i < 4000; ++i)
        pc.observe(a++);
    EXPECT_GT(pc.epochs(), d.epochs);
    EXPECT_EQ(tl.samples().size(), d.epochs);
}

// ---------------------------------------------------------------------
// Triage prefetcher end-to-end against a mock host
// ---------------------------------------------------------------------

namespace {

class TriageMockHost final : public prefetch::PrefetchHost
{
  public:
    prefetch::PfOutcome next_outcome = prefetch::PfOutcome::IssuedToDram;
    std::vector<sim::Addr> issued;
    std::vector<sim::Cycle> issue_times;
    std::uint64_t onchip_accesses = 0;
    std::uint64_t capacity = ~0ULL;

    prefetch::PfOutcome
    issue_prefetch(unsigned, sim::Addr block, sim::Cycle when,
                   prefetch::Prefetcher*) override
    {
        issued.push_back(block);
        issue_times.push_back(when);
        return next_outcome;
    }

    sim::Cycle llc_latency() const override { return 20; }

    void
    count_metadata_llc_access(unsigned, bool) override
    {
        ++onchip_accesses;
    }

    sim::Cycle
    offchip_metadata_access(unsigned, sim::Cycle now, std::uint32_t, bool,
                            bool) override
    {
        return now;
    }

    void
    request_metadata_capacity(unsigned, std::uint64_t bytes,
                              sim::Cycle) override
    {
        capacity = bytes;
    }
};

prefetch::TrainEvent
miss(sim::Pc pc, sim::Addr block, sim::Cycle now = 0)
{
    prefetch::TrainEvent ev;
    ev.pc = pc;
    ev.block = block;
    ev.now = now;
    ev.l2_hit = false;
    return ev;
}

} // namespace

TEST(Triage, PrefetchesLearnedSuccessor)
{
    auto t = make_triage_static(1024 * 1024);
    TriageMockHost host;
    std::vector<sim::Addr> stream{10, 500, 42, 9999, 77};
    for (int pass = 0; pass < 3; ++pass)
        for (auto a : stream)
            t->train(miss(0x400, a), host);
    host.issued.clear();
    t->train(miss(0x400, 10), host);
    ASSERT_FALSE(host.issued.empty());
    EXPECT_EQ(host.issued[0], 500u);
}

TEST(Triage, RequestsLlcCapacityOnce)
{
    auto t = make_triage_static(512 * 1024);
    TriageMockHost host;
    t->train(miss(0x400, 1), host);
    EXPECT_EQ(host.capacity, 512u * 1024u);
}

TEST(Triage, UnlimitedModeNeverRequestsCapacity)
{
    auto t = make_triage_unlimited();
    TriageMockHost host;
    for (sim::Addr a : {1, 2, 3, 1, 2, 3})
        t->train(miss(0x400, a), host);
    EXPECT_EQ(host.capacity, ~0ULL);
    host.issued.clear();
    t->train(miss(0x400, 1), host);
    ASSERT_FALSE(host.issued.empty());
    EXPECT_EQ(host.issued[0], 2u);
}

TEST(Triage, MetadataLookupDelaysPrefetchByLlcLatency)
{
    auto t = make_triage_static(1024 * 1024);
    TriageMockHost host;
    for (int pass = 0; pass < 2; ++pass)
        for (sim::Addr a : {5, 6})
            t->train(miss(0x400, a, 1000), host);
    host.issued.clear();
    host.issue_times.clear();
    t->train(miss(0x400, 5, 2000), host);
    ASSERT_FALSE(host.issue_times.empty());
    EXPECT_EQ(host.issue_times[0], 2000u + host.llc_latency());
}

TEST(Triage, DegreeWalksSuccessorChain)
{
    TriageConfig cfg;
    cfg.degree = 3;
    cfg.static_bytes = 1024 * 1024;
    Triage t(cfg);
    TriageMockHost host;
    for (int pass = 0; pass < 3; ++pass)
        for (sim::Addr a : {10, 20, 30, 40, 50})
            t.train(miss(0x400, a), host);
    host.issued.clear();
    t.train(miss(0x400, 10), host);
    ASSERT_GE(host.issued.size(), 3u);
    EXPECT_EQ(host.issued[0], 20u);
    EXPECT_EQ(host.issued[1], 30u);
    EXPECT_EQ(host.issued[2], 40u);
}

TEST(Triage, IgnoresPlainL2Hits)
{
    auto t = make_triage_static(1024 * 1024);
    TriageMockHost host;
    auto ev = miss(0x400, 1);
    ev.l2_hit = true;
    for (int i = 0; i < 10; ++i)
        t->train(ev, host);
    EXPECT_EQ(host.onchip_accesses, 0u);
}

TEST(Triage, CountsOnchipMetadataEnergy)
{
    auto t = make_triage_static(1024 * 1024);
    TriageMockHost host;
    for (sim::Addr a : {1, 2, 3})
        t->train(miss(0x400, a), host);
    // Each trigger: 1 read probe; each trained pair: 1 write.
    EXPECT_GE(host.onchip_accesses, 5u);
}

TEST(Triage, TrackReuseCountsLookupHits)
{
    TriageConfig cfg;
    cfg.unlimited = true;
    cfg.charge_llc_capacity = false;
    cfg.track_reuse = true;
    Triage t(cfg);
    TriageMockHost host;
    for (int pass = 0; pass < 5; ++pass)
        for (sim::Addr a : {1, 2, 3})
            t.train(miss(0x400, a), host);
    const auto& rc = t.reuse_counts();
    ASSERT_TRUE(rc.count(1));
    EXPECT_GE(rc.at(1), 3u);
}

TEST(Triage, DynamicShrinksOnStreamingWorkload)
{
    TriageConfig cfg;
    cfg.dynamic = true;
    cfg.partition.epoch_accesses = 3000;
    cfg.partition.sample_shift = 2;
    Triage t(cfg);
    TriageMockHost host;
    // Pure streaming: every trigger is new; metadata has zero reuse.
    for (sim::Addr a = 0; a < 15000; ++a)
        t.train(miss(0x400, a), host);
    EXPECT_EQ(t.current_store_bytes(), 0u);
    EXPECT_EQ(host.capacity, 0u);
}

TEST(Partition, UtilityGateReleasesUselessStore)
{
    // The optional future-work extension: with the gate enabled, a
    // store that holds hits but converts none of them into consumed
    // prefetches is stepped down after its warm-up grace.
    PartitionConfig cfg;
    cfg.epoch_accesses = 10000;
    cfg.gate_min_accuracy = 0.25;
    cfg.gate_min_epochs = 3;
    cfg.initial_level = 2;
    PartitionController pc(cfg);
    // Strong metadata reuse (small hot set) but zero usefulness.
    for (int i = 0; i < 200000; ++i) {
        pc.observe(i % 1000);
        if (i % 20 == 0)
            pc.note_issued(); // issues plenty...
        // ...but note_useful() never fires: all garbage.
    }
    EXPECT_EQ(pc.level(), 0u);
}

TEST(Partition, UtilityGateKeepsAccurateStore)
{
    PartitionConfig cfg;
    cfg.epoch_accesses = 10000;
    cfg.gate_min_accuracy = 0.25;
    cfg.gate_min_epochs = 3;
    cfg.initial_level = 2;
    PartitionController pc(cfg);
    for (int i = 0; i < 200000; ++i) {
        pc.observe(i % 1000);
        if (i % 20 == 0) {
            pc.note_issued();
            pc.note_useful(); // consumed: accuracy 100%
        }
    }
    EXPECT_GT(pc.level(), 0u);
}

TEST(Partition, GateDisabledByDefault)
{
    PartitionConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.gate_min_accuracy, 0.0);
}
