/**
 * @file
 * MISB (Wu et al., ISCA 2019): the state-of-the-art off-chip temporal
 * prefetcher Triage is compared against.
 *
 * Like ISB, MISB maps PC-localized correlated addresses onto a
 * *structural address space* so that temporal neighbours become
 * spatial neighbours: PS (physical->structural) and SP
 * (structural->physical) mappings live off chip, with small on-chip
 * metadata caches managed at fine granularity. MISB adds a metadata
 * prefetcher that walks ahead in the structural space, and a Bloom
 * filter that suppresses off-chip lookups for untracked addresses
 * (modeled exactly: membership in the off-chip PS table). The
 * off-chip tables are stored the way they move: by 64 B granule
 * (GranuleTable), so one modeled burst is one host probe.
 *
 * Unlike the idealized STMS/Domino models, MISB's metadata traffic is
 * charged against the DRAM model in full (reads delay the dependent
 * data prefetch; dirty metadata evictions write back), reproducing the
 * paper's "faithfully modeled" comparison (Figures 11-13, 17).
 */
#ifndef TRIAGE_PREFETCH_MISB_HPP
#define TRIAGE_PREFETCH_MISB_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "prefetch/prefetcher.hpp"
#include "util/flat_map.hpp"

namespace triage::prefetch {

/** Tuning knobs. Default on-chip budget is the paper's MISB_48KB. */
struct MisbConfig {
    std::uint32_t ps_cache_entries = 8192; ///< 32 KB at 4 B/entry
    std::uint32_t sp_cache_entries = 4096; ///< 16 KB at 4 B/entry
    std::uint32_t cache_ways = 8;
    std::uint32_t training_unit_entries = 64;
    /** Structural stream chunk; new PC streams start on this boundary. */
    std::uint32_t stream_length = 256;
    /** Metadata entries moved per off-chip 64 B burst. */
    std::uint32_t granule_entries = 16;
    std::uint32_t degree = 1;
    /** Walk-ahead metadata prefetching (MISB's key addition). */
    bool metadata_prefetch = true;
    /** Charge metadata latency/bandwidth (false only in ablations). */
    bool charge_time = true;
    /**
     * Charge an off-chip read when a stream advance needs a PS entry
     * that is no longer cached (MISB's fine-grained PS metadata
     * prefetching: latency hidden, traffic real). ISB's page-synced
     * variant instead pays at page granularity via larger granules.
     */
    bool stream_ps_charge = true;
    /** Display name ("misb" or "isb"). */
    const char* display_name = "misb";
};

/** ISB (Jain & Lin, MICRO 2013): the TLB-synced predecessor of MISB.
 *  Metadata moves at page granularity (64 entries = 4 bursts per
 *  fetch), there is no metadata prefetcher, and cache utilization is
 *  correspondingly poor — the 200-400% traffic regime the paper's
 *  related work describes. */
MisbConfig isb_config(std::uint32_t degree = 1);

/**
 * On-chip metadata cache: set-associative, LRU, key->value entries
 * with dirty bits. Shared by the PS and SP sides.
 */
class MetadataCache
{
  public:
    MetadataCache(std::uint32_t entries, std::uint32_t ways);

    /** Probe; refreshes LRU on hit. */
    std::optional<std::uint64_t> find(std::uint64_t key);

    struct Evicted {
        bool valid = false;
        bool dirty = false;
        std::uint64_t key = 0;
        std::uint64_t value = 0;
    };

    /** Install or update (key -> value). */
    Evicted insert(std::uint64_t key, std::uint64_t value, bool dirty);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    void
    checkpoint(sim::Snapshot& s)
    {
        s.section("misb.mdcache");
        s.io_vec(entries_, [](sim::Snapshot& a, Entry& e) {
            a.io(e.key);
            a.io(e.value);
            a.io(e.lru);
            a.io(e.dirty);
            a.io(e.valid);
        });
        s.io(clock_);
        s.io(hits_);
        s.io(misses_);
    }

  private:
    struct Entry {
        std::uint64_t key = 0;
        std::uint64_t value = 0;
        std::uint64_t lru = 0;
        bool dirty = false;
        bool valid = false;
    };

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Off-chip metadata table stored by granule: the unit MISB moves in
 * one off-chip fetch. A key belongs to granule `key / width`; every
 * granule that holds at least one entry owns a `width`-wide row in one
 * flat pool, with all ones marking an absent slot. A modeled burst is
 * then one index probe plus a contiguous scan, where a per-key map
 * would pay `width` scattered probes. Entries are only ever added.
 *
 * Memory is proportional to touched granules, not entries: a trace
 * that maps one key per granule pays a whole row per entry, `width`
 * times the bytes per entry of full rows (docs/performance.md §7).
 */
class GranuleTable
{
  public:
    /** Slot value meaning "no entry"; never storable as a value. */
    static constexpr std::uint64_t ABSENT = ~std::uint64_t{0};

    /** @p width entries per granule; a power of two. */
    explicit GranuleTable(std::uint32_t width);

    /** Pointer to the value mapped to @p key, or nullptr. */
    std::uint64_t*
    find(std::uint64_t key)
    {
        const std::uint32_t* r = index_.find(key >> shift_);
        if (r == nullptr)
            return nullptr;
        std::uint64_t* v = &pool_[slot(*r, key)];
        return *v == ABSENT ? nullptr : v;
    }

    /**
     * Value slot for @p key, inserting 0 if absent. Callers must not
     * store ABSENT. The reference is invalidated by the next insert.
     */
    std::uint64_t& ref(std::uint64_t key);

    /**
     * The `width` slots of @p granule in ascending key order (ABSENT
     * where unmapped), or nullptr if the granule holds no entry.
     */
    const std::uint64_t*
    row(std::uint64_t granule) const
    {
        const std::uint32_t* r = index_.find(granule);
        return r == nullptr ? nullptr : &pool_[slot(*r, 0)];
    }

    /** Number of mapped keys. */
    std::size_t size() const { return size_; }

    /**
     * The entry count, the granule count, then each granule id in
     * ascending order with its row: canonical bytes whatever the
     * insertion order.
     */
    void checkpoint(sim::Snapshot& s);

  private:
    std::size_t
    slot(std::uint32_t row_plus_1, std::uint64_t key) const
    {
        return static_cast<std::size_t>(row_plus_1 - 1) * width_ +
               (key & (width_ - 1));
    }

    std::uint32_t width_;
    std::uint32_t shift_;
    /** Granule id -> row index + 1 (0 is FlatMap::ref's "new"). */
    util::FlatMap<std::uint64_t, std::uint32_t> index_;
    std::vector<std::uint64_t> pool_;
    std::size_t size_ = 0;
};

/** MISB prefetcher. */
class Misb final : public Prefetcher
{
  public:
    explicit Misb(MisbConfig cfg = {});

    void train(const TrainEvent& ev, PrefetchHost& host) override;
    const std::string& name() const override { return name_; }

    const MetadataCache& ps_cache() const { return ps_cache_; }
    const MetadataCache& sp_cache() const { return sp_cache_; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        Prefetcher::checkpoint(s);
        s.section("pf.misb");
        ps_backing_.checkpoint(s);
        sp_backing_.checkpoint(s);
        ps_cache_.checkpoint(s);
        sp_cache_.checkpoint(s);
        s.io_vec(tu_, [](sim::Snapshot& a, TuEntry& e) {
            a.io(e.pc);
            a.io(e.last);
            a.io(e.lru);
            a.io(e.valid);
        });
        s.io(tu_clock_);
        s.io_vec(streams_, [](sim::Snapshot& a, ActiveStream& e) {
            a.io(e.expected_phys);
            a.io(e.structural);
            a.io(e.lru);
            a.io(e.valid);
        });
        s.io(stream_clock_);
        s.io(next_structural_);
        s.io(pending_dirty_);
    }

  private:
    static constexpr std::uint64_t INVALID = ~std::uint64_t{0};
    /** Remap-confidence bit inside a PS table value (see ps_backing_). */
    static constexpr std::uint64_t CONFIDENT = std::uint64_t{1} << 63;

    /**
     * Look up PS[phys]; on on-chip miss fetch the off-chip granule
     * (charged). @return structural address (INVALID if unmapped) and
     * the time the answer is available.
     */
    std::uint64_t ps_lookup(sim::Addr phys, const TrainEvent& ev,
                            PrefetchHost& host, sim::Cycle& avail);
    sim::Addr sp_lookup(std::uint64_t structural, const TrainEvent& ev,
                        PrefetchHost& host, sim::Cycle& avail);
    void ps_update(sim::Addr phys, std::uint64_t structural,
                   const TrainEvent& ev, PrefetchHost& host);
    void sp_update(std::uint64_t structural, sim::Addr phys,
                   const TrainEvent& ev, PrefetchHost& host);
    void handle_eviction(const MetadataCache::Evicted& ev_entry,
                         const TrainEvent& ev, PrefetchHost& host);
    /** First structural address of a fresh stream_length chunk. */
    std::uint64_t new_stream();
    /** The PS table value of mapped block @p phys (asserted mapped). */
    std::uint64_t& ps_entry(sim::Addr phys);
    /** Fetch one off-chip granule into the on-chip cache. */
    sim::Cycle fetch_granule(bool is_ps, std::uint64_t first_key,
                             const TrainEvent& ev, PrefetchHost& host);

    MisbConfig cfg_;
    /**
     * Off-chip backing store (DRAM-resident metadata, unbounded),
     * granule-organized so fetch_granule is one row scan. PS entries
     * are only ever added, never erased, so PS membership is also the
     * architectural Bloom filter: a block absent from ps_backing_ is
     * untracked and never costs an off-chip lookup.
     *
     * A PS value is the structural address plus, in bit 63
     * (CONFIDENT), the entry's 1-bit remap confidence: a block is
     * re-mapped to a new structural address only after two
     * consecutive disagreements, so blocks with several valid
     * successors stop churning the structural space. Structural
     * addresses stay below 2^63 (new_stream asserts it); every read
     * that yields a structural address masks the bit off.
     */
    GranuleTable ps_backing_;
    GranuleTable sp_backing_;
    MetadataCache ps_cache_;
    MetadataCache sp_cache_;

    // Training unit: PC -> last physical block (small, LRU via clock).
    struct TuEntry {
        sim::Pc pc = 0;
        sim::Addr last = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };
    std::vector<TuEntry> tu_;
    std::uint64_t tu_clock_ = 0;

    /**
     * Stream buffers (ISB's key structure): once a stream is active,
     * the next trigger's structural address is known (s+1), so no PS
     * lookup — on or off chip — is needed while the prediction holds.
     */
    struct ActiveStream {
        sim::Addr expected_phys = 0;
        std::uint64_t structural = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };
    std::vector<ActiveStream> streams_;
    std::uint64_t stream_clock_ = 0;

    std::uint64_t next_structural_ = 0;
    std::uint32_t pending_dirty_ = 0; ///< coalescing write buffer fill
    std::string name_;
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_MISB_HPP
