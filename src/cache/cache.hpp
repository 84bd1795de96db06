/**
 * @file
 * Set-associative cache with pluggable replacement, per-line fill
 * timestamps (so in-flight fills behave like MSHR merges), prefetch
 * bits, and way partitioning (used by Triage to carve metadata ways out
 * of the LLC).
 *
 * Hot-path layout (docs/performance.md): the lookup loop scans a
 * packed per-set tag array (one 64-bit word per way, validity folded
 * into an INVALID_TAG sentinel) so find-way is a tight,
 * auto-vectorizable compare loop. Cold per-line state — dirty and
 * prefetch bits, fill time, prefetch owner — lives in a parallel
 * array touched only on hit or insert. Every operation computes the
 * set index exactly once and threads {set, way} through to the
 * replacement callbacks.
 */
#ifndef TRIAGE_CACHE_CACHE_HPP
#define TRIAGE_CACHE_CACHE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/replacement.hpp"
#include "sim/types.hpp"
#include "util/row_scan.hpp"

namespace triage::prefetch {
class Prefetcher;
} // namespace triage::prefetch

namespace triage::obs {
class Registry;
} // namespace triage::obs

namespace triage::cache {

/** Result of a lookup. */
struct LookupResult {
    bool hit = false;
    /** This demand touch was the first use of a prefetched line. */
    bool first_prefetch_use = false;
    /** ...and the prefetch fill was still in flight (late prefetch). */
    bool late_prefetch = false;
    /** Fill-completion time of the hit line (valid only when hit). */
    sim::Cycle ready_time = 0;
    /** Owner of the consumed prefetch (valid iff first_prefetch_use). */
    prefetch::Prefetcher* pf_owner = nullptr;
};

/** Information about a line displaced by insert(). */
struct Eviction {
    bool valid = false; ///< a valid line was displaced
    sim::Addr block = 0;
    bool dirty = false;
    bool prefetched = false; ///< evicted before any demand use
};

/** Hit/miss/eviction counters. */
struct CacheStats {
    std::uint64_t demand_hits = 0;
    std::uint64_t demand_misses = 0;
    std::uint64_t pf_probe_hits = 0;   ///< prefetch-initiated lookups
    std::uint64_t pf_probe_misses = 0;
    std::uint64_t prefetch_hits = 0;   ///< demand hits on prefetched lines
    std::uint64_t late_prefetch_hits = 0; ///< ...whose fill was in flight
    std::uint64_t evictions = 0;
    std::uint64_t dirty_evictions = 0;
    std::uint64_t unused_prefetch_evictions = 0;

    std::uint64_t
    demand_accesses() const
    {
        return demand_hits + demand_misses;
    }
};

/**
 * Pointer<->index codec for a line's prefetch owner across serialization.
 * The host (MemorySystem) enumerates every prefetcher that can own a
 * line, in a fixed order; snapshots store 0 for "no owner" and
 * 1 + index otherwise. Restore resolves indices against the restoring
 * system's enumeration, so save and restore hosts must be configured
 * identically (the sealed fingerprint enforces that).
 */
struct PfOwnerCodec {
    std::vector<prefetch::Prefetcher*> owners;

    std::uint32_t
    encode(const prefetch::Prefetcher* p) const
    {
        if (p == nullptr)
            return 0;
        for (std::size_t i = 0; i < owners.size(); ++i) {
            if (owners[i] == p)
                return static_cast<std::uint32_t>(i + 1);
        }
        util::panic("PfOwnerCodec: line owned by an unenumerated "
                    "prefetcher");
    }

    prefetch::Prefetcher*
    decode(std::uint32_t id) const
    {
        if (id == 0)
            return nullptr;
        TRIAGE_ASSERT(id <= owners.size(),
                      "PfOwnerCodec: owner index out of range");
        return owners[id - 1];
    }
};

/** Construction parameters. */
struct CacheGeometry {
    std::string name;
    std::uint64_t size_bytes = 0;
    std::uint32_t assoc = 0;
};

/**
 * A set-associative cache of 64 B lines.
 *
 * Way partitioning: @c set_data_ways(n) restricts data to the first n
 * ways of every set; the remaining ways model space repurposed for
 * prefetcher metadata. Shrinking the data partition invalidates the
 * ways handed over (dirty lines are reported so the caller can charge
 * writeback traffic), matching Triage's flush-on-repartition rule.
 */
class SetAssocCache
{
  public:
    SetAssocCache(const CacheGeometry& geom,
                  std::unique_ptr<ReplacementPolicy> repl);

    /**
     * Lookup. Updates replacement state and stats; demand lookups clear
     * the prefetch bit on first touch (recording a useful prefetch),
     * prefetch probes (@p is_prefetch_probe) keep it and use separate
     * stat counters.
     */
    LookupResult access(sim::Addr block, sim::Pc pc, sim::Cycle now,
                        bool is_write, bool is_prefetch_probe = false);

    /** Tag probe with no side effects. */
    bool contains(sim::Addr block) const;

    /**
     * Request @p block's tag row (and LRU stamp row) from the
     * simulating machine's memory ahead of a lookup. Pure wall-clock
     * latency hint; no simulated (architectural) effect.
     */
    void
    prefetch_hint(sim::Addr block) const
    {
        const std::size_t set = set_of(block);
        const sim::Addr* row = tags_.data() + set * assoc_;
        __builtin_prefetch(row);
        if (assoc_ > 8) // a 16-way tag row spans two 64 B lines
            __builtin_prefetch(row + 8);
        if (lru_.stamps != nullptr)
            __builtin_prefetch(lru_.stamps + set * lru_.assoc);
        // The packed hot-state row is written by every fill and read on
        // hit; at one word per way it is fully covered by two lines.
        const std::uint64_t* hrow = hot_.data() + set * assoc_;
        __builtin_prefetch(hrow, 1);
        if (assoc_ > 8)
            __builtin_prefetch(hrow + 8, 1);
    }

    /** Set the dirty bit if @p block is resident. @return resident. */
    bool mark_dirty(sim::Addr block);

    /**
     * Install @p block (fill completes at @p ready_time).
     * @p pf_owner credits the issuing prefetcher on first demand use.
     * @return the displaced line, if any.
     */
    Eviction insert(sim::Addr block, sim::Pc pc, sim::Cycle ready_time,
                    bool dirty, bool is_prefetch,
                    prefetch::Prefetcher* pf_owner = nullptr);

    /** Drop @p block if present (no writeback). @return line was present. */
    bool invalidate(sim::Addr block);

    /**
     * Restrict data to the first @p n ways per set.
     * @param[out] flushed_dirty number of dirty lines invalidated.
     */
    void set_data_ways(std::uint32_t n, std::uint64_t* flushed_dirty = nullptr);

    std::uint32_t data_ways() const { return data_ways_; }
    std::uint32_t assoc() const { return assoc_; }
    std::uint32_t num_sets() const { return sets_; }
    const CacheStats& stats() const { return stats_; }

    /** Bind hit/miss/eviction counters into @p reg under @p prefix. */
    void register_stats(obs::Registry& reg,
                        const std::string& prefix) const;
    void clear_stats() { stats_ = {}; }
    const std::string& name() const { return name_; }

    /** Number of currently valid lines, O(1) (counter-maintained). */
    std::uint64_t valid_lines() const { return live_lines_; }

    /** Full tag-array scan, O(sets x ways); tests cross-check the
     *  live-line counter against it. */
    std::uint64_t count_valid_lines_slow() const;

    /**
     * Internal-consistency sweep for the verify harness: live-line
     * counter vs a slow tag scan, no duplicate tags within a set, ways
     * outside the data partition invalid, and (for inline LRU) stamps
     * zero on invalid ways and within the global clock on valid ones.
     * Calls @p report once per violation.
     */
    void self_check(
        const std::function<void(const std::string&)>& report) const;

    /**
     * Save/restore tags, cold line state (owners via @p codec),
     * partition width, replacement state and stats. Geometry must
     * already match (same sets/assoc construction).
     */
    void checkpoint(sim::Snapshot& s, const PfOwnerCodec& codec);

  private:
    /** Tag value meaning "way holds no line" (blocks are byte
     *  addresses >> 6, so all-ones can never be a real tag). */
    static constexpr sim::Addr INVALID_TAG = ~sim::Addr{0};
    /** find_way() result meaning "not resident". */
    static constexpr std::uint32_t NO_WAY = ~std::uint32_t{0};

    // Packed hot line state, one word per way: ready_time in the low
    // 62 bits (cycle counts never approach 2^62), dirty and prefetched
    // in the top two. The pf-owner pointer lives in the parallel cold
    // `owners_` array; it keeps stale values on invalidated ways, as
    // the pre-split per-line struct did, so snapshots stay
    // byte-identical.
    static constexpr std::uint64_t HOT_DIRTY = std::uint64_t{1} << 62;
    static constexpr std::uint64_t HOT_PREFETCHED = std::uint64_t{1} << 63;
    static constexpr std::uint64_t HOT_READY_MASK = HOT_DIRTY - 1;

    std::uint32_t set_of(sim::Addr block) const;
    /** Scan the data partition of the set at @p base for @p block. */
    std::uint32_t find_way(std::size_t base, sim::Addr block) const;

    // Replacement dispatch. When the policy is plain LRU its callbacks
    // are pure stamp updates, so they run inline here instead of
    // through the vtable — identical state transitions, no virtual
    // call on the ~3 replacement touches per access
    // (docs/performance.md). Stateful policies take the virtual path.
    void
    repl_touch(std::uint32_t set, std::uint32_t way, sim::Addr block,
               sim::Pc pc, bool is_prefetch, bool is_insert)
    {
        if (lru_.stamps != nullptr) {
            lru_.stamps[static_cast<std::size_t>(set) * lru_.assoc + way] =
                ++*lru_.clock;
            return;
        }
        if (is_insert)
            repl_->on_insert({set, way, block, pc, is_prefetch});
        else
            repl_->on_hit({set, way, block, pc, is_prefetch});
    }

    void
    repl_miss(std::uint32_t set, sim::Addr block, sim::Pc pc)
    {
        if (lru_.stamps != nullptr)
            return; // LRU ignores misses
        repl_->on_miss(set, block, pc);
    }

    void
    repl_invalidate(std::uint32_t set, std::uint32_t way)
    {
        if (lru_.stamps != nullptr) {
            lru_.stamps[static_cast<std::size_t>(set) * lru_.assoc + way] =
                0;
            return;
        }
        repl_->on_invalidate(set, way);
    }

    std::uint32_t
    repl_victim(std::uint32_t set, std::uint32_t way_begin,
                std::uint32_t way_end)
    {
        if (lru_.stamps != nullptr) {
            // First-minimum stamp scan; ties resolve to the lowest way.
            const std::uint64_t* row =
                lru_.stamps + static_cast<std::size_t>(set) * lru_.assoc;
            return way_begin +
                   util::min_index(row + way_begin, way_end - way_begin);
        }
        return repl_->victim(set, way_begin, way_end);
    }

    std::string name_;
    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::uint32_t data_ways_;
    std::vector<sim::Addr> tags_;    ///< sets_ x assoc_, row-major
    std::vector<std::uint64_t> hot_; ///< packed ready/dirty/prefetched
    std::vector<prefetch::Prefetcher*> owners_; ///< cold pf-owner slots
    std::uint64_t live_lines_ = 0;
    std::unique_ptr<ReplacementPolicy> repl_;
    LruFastView lru_; ///< aliases repl_'s state iff it is plain LRU
    CacheStats stats_;
};

} // namespace triage::cache

#endif // TRIAGE_CACHE_CACHE_HPP
