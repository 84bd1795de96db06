/**
 * @file
 * Triage's on-chip metadata store (paper Sections 3.1-3.2).
 *
 * The store models the LLC-resident table: 4-byte entries, 16 tagged
 * entries per 64-byte LLC line, indexed by trigger address. Each entry
 * records the compressed tag of the trigger and the compressed tag +
 * set id of its PC-localized successor, plus a 1-bit confidence
 * counter. Anything that does not fit is simply discarded — there is
 * no off-chip backing store.
 */
#ifndef TRIAGE_CORE_METADATA_STORE_HPP
#define TRIAGE_CORE_METADATA_STORE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"
#include "triage/tag_compressor.hpp"

namespace triage::obs {
class EventTrace;
} // namespace triage::obs

namespace triage::core {

/**
 * The store's replacement policies: LRU (Figure 9's baseline) and
 * Triage's filtered-training Hawkeye. The data-cache-only SRRIP,
 * DRRIP and SHiP have no value here. Each enumerator carries its
 * sim::ReplPolicy value, so cache::make_policy takes it by a cast.
 */
enum class StoreRepl : std::uint8_t {
    Lru = static_cast<std::uint8_t>(sim::ReplPolicy::Lru),
    Hawkeye = static_cast<std::uint8_t>(sim::ReplPolicy::Hawkeye),
};

/** Bytes of one metadata entry (paper Section 3.2); the store and the
 *  partition controller's sandboxes both size in these. */
inline constexpr std::uint32_t ENTRY_BYTES = 4;
/** Entries per LLC line: the store's associativity. */
inline constexpr std::uint32_t LINE_ENTRIES = 16;
static_assert(ENTRY_BYTES * LINE_ENTRIES == sim::BLOCK_SIZE,
              "a store row is one LLC line");

/** Store construction parameters. */
struct MetadataStoreConfig {
    std::uint64_t capacity_bytes = 1024 * 1024;
    StoreRepl repl = StoreRepl::Hawkeye;
    /** Model the compressed-tag table (false stores full addresses). */
    bool compressed_tags = true;
};

/** Running counters. */
struct MetadataStoreStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t updates = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t confidence_flips = 0; ///< successor replaced
    std::uint64_t tag_alias_drops = 0;  ///< lookup invalidated by recycle
};

/** Result of a lookup. */
struct MetaLookup {
    bool hit = false;
    /** Confidence bit is set (prediction trustworthy). */
    bool confident = false;
    sim::Addr next = 0;  ///< reconstructed successor block
    std::uint32_t set = 0;
    std::uint32_t way = 0;
};

/**
 * Set-associative table of (trigger -> successor) correlations.
 *
 * Lookup and replacement-training are split so the caller can apply
 * Triage's filtered-training rule: probe() finds the entry, and
 * commit_access() later tells the policy whether the resulting
 * prefetch made the access "visible".
 */
class MetadataStore
{
  public:
    explicit MetadataStore(MetadataStoreConfig cfg = {});

    /** Probe for @p trigger. No replacement-policy side effects. */
    MetaLookup probe(sim::Addr trigger);

    /**
     * Request the cache lines a probe()/update() of @p trigger will
     * touch (key row + compressor slot) ahead of time. Pure latency
     * hint; no architectural effect.
     */
    void prefetch_hint(sim::Addr trigger) const;

    /**
     * Report the outcome of a probe: @p visible is false when the
     * prefetch produced was redundant (invisible to Hawkeye training).
     */
    void commit_access(sim::Addr trigger, const MetaLookup& lk, sim::Pc pc,
                       bool visible);

    /**
     * Learn the correlation (trigger -> next) with 1-bit confidence:
     * matching updates re-arm confidence, one mismatch lowers it, a
     * second mismatch replaces the successor. A new successor starts
     * unconfident, so a pair must be observed twice before it
     * prefetches, which mutes the one-shot pairs that churn through
     * workloads without stable successors (cf. ISB's counters).
     */
    void update(sim::Addr trigger, sim::Addr next, sim::Pc pc);

    /**
     * Resize to @p bytes, rehashing surviving entries into the new
     * geometry and discarding overflow (repartition semantics). The
     * rehash runs in place: a shrink keeps the arrays' capacity and a
     * grow reallocates only past it (docs/performance.md §13).
     */
    void resize(std::uint64_t bytes);

    std::uint64_t capacity_bytes() const { return capacity_bytes_; }
    std::uint64_t capacity_entries() const;
    /** Number of live correlations, O(1) (counter-maintained). */
    std::uint64_t valid_entries() const { return live_entries_; }
    /** Full table scan, O(capacity); tests cross-check the live-entry
     *  counter against it. */
    std::uint64_t count_valid_entries_slow() const;
    const MetadataStoreStats& stats() const { return stats_; }
    /** Replacement-training counters; owned here so they survive the
     *  policy rebuild a resize() performs. */
    const cache::ReplStats& repl_stats() const { return repl_stats_; }
    const TagCompressor& compressor() const { return compressor_; }
    cache::ReplacementPolicy* repl() { return repl_.get(); }
    /** Address of the entry array, which resize() keeps while the new
     *  geometry fits the capacity the store has held. */
    const void* entries_data() const { return entries_.data(); }

    /** Attach (or detach, with null) the event trace. */
    void set_trace(obs::EventTrace* trace) { trace_ = trace; }

    /**
     * Internal-consistency sweep for the verify harness: live-entry
     * counter vs a slow scan, live entries within capacity, every live
     * search key mirroring its entry's full_trigger (plus the key's
     * own ctag in compressed mode), and every empty way holding a
     * zero entry and a zero successor ctag. Calls @p report per
     * violation.
     */
    void self_check(
        const std::function<void(const std::string&)>& report) const;

    /**
     * Save/restore the full store: current capacity (restore rebuilds
     * the geometry and policy through set_geometry() before loading
     * into them), entries, search keys, successor ctags, replacement +
     * compressor state and both counter blocks.
     */
    void
    checkpoint(sim::Snapshot& s)
    {
        s.section("triage.store");
        std::uint64_t cap = capacity_bytes_;
        s.io(cap);
        if (s.loading() && cap != capacity_bytes_) {
            set_geometry(cap);
            rebuild_policy();
        }
        s.io_pod_vec(entries_);
        s.io_pod_vec(keys_);
        s.io_pod_vec(next_ctags_);
        s.io(live_entries_);
        if (repl_ != nullptr)
            repl_->checkpoint(s);
        compressor_.checkpoint(s);
        s.io_pod(stats_);
        s.io_pod(repl_stats_);
    }

  private:
    /**
     * Host layout of one simulated 4-byte entry, 25 bytes in all
     * (docs/performance.md §11, §13): this 16-byte pair of block
     * addresses, the 4-byte search key, a 2-byte successor ctag in
     * next_ctags_ and Hawkeye's 3 bytes of RRPV and predictor slot.
     * The full addresses drive the uncompressed mode, alias detection
     * and rehash-on-resize; everything else an entry models is
     * derived: valid is keys_[i] != INVALID_KEY, the trigger ctag is
     * the compressed key's low 16 bits, and the successor's set id is
     * compressor_.set_of(full_next). An empty slot is all zero.
     */
    struct Entry {
        sim::Addr full_trigger = 0;
        sim::Addr full_next = 0; ///< successor block | CONFIDENT
    };

    /** Confidence bit, carried in full_next above any block address. */
    static constexpr sim::Addr CONFIDENT = sim::Addr{1} << 63;
    /** Block addresses (byte address >> 6) stay below this. */
    static constexpr sim::Addr BLOCK_LIMIT = sim::Addr{1} << 58;

    /**
     * Per-way 32-bit search key, scanned by the hot lookup loop
     * instead of the Entry row (docs/performance.md). Compressed mode
     * packs (trigger set id << 16) | trigger_ctag, 27 bits. The
     * uncompressed mode stores a 32-bit fold of the full trigger, so
     * two triggers can share a key; find_way() then confirms a match
     * against the entry's full_trigger. INVALID_KEY marks an empty
     * way; neither kind of key takes that value.
     */
    static constexpr std::uint32_t INVALID_KEY = ~std::uint32_t{0};
    /** find_way() result meaning "no matching way". */
    static constexpr std::uint32_t NO_WAY = ~std::uint32_t{0};

    std::uint32_t set_of(sim::Addr trigger) const;
    /**
     * Way of @p trigger, whose search key is @p key, in the set at
     * @p base; first match wins. The compressed mode takes the first
     * key match (ctag aliases included); the uncompressed mode the
     * first whose entry holds @p trigger itself.
     */
    std::uint32_t find_way(std::size_t base, sim::Addr trigger,
                           std::uint32_t key) const;
    /** First empty way of the set at @p base, or NO_WAY. */
    std::uint32_t find_empty(std::size_t base) const;
    /** Search key of @p trigger whose tag compressed to @p ctag
     *  (the ctag is ignored in uncompressed mode). */
    std::uint32_t key_of(sim::Addr trigger, std::uint16_t ctag) const;
    /** Power-of-two set count of a @p bytes store (0 when empty). */
    std::uint32_t sets_for(std::uint64_t bytes) const;
    /** Set capacity_bytes_ and sets_ for @p bytes, and size the slot
     *  arrays to match (growing past capacity only if it must). */
    void set_geometry(std::uint64_t bytes);
    /** A fresh policy for the current geometry (none when empty). */
    void rebuild_policy();

    MetadataStoreConfig cfg_;
    std::uint64_t capacity_bytes_;
    std::uint32_t sets_ = 0;
    std::vector<Entry> entries_;
    std::vector<std::uint32_t> keys_; ///< parallel to entries_
    /** Successor ctag per way (0 when empty or uncompressed). */
    std::vector<std::uint16_t> next_ctags_;
    std::uint64_t live_entries_ = 0;
    std::unique_ptr<cache::ReplacementPolicy> repl_;
    TagCompressor compressor_;
    MetadataStoreStats stats_;
    cache::ReplStats repl_stats_;
    obs::EventTrace* trace_ = nullptr;
};

} // namespace triage::core

#endif // TRIAGE_CORE_METADATA_STORE_HPP
