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
 * (modeled exactly: membership in the off-chip PS table).
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
        s.io_flat_map(ps_backing_);
        s.io_flat_map(sp_backing_);
        s.io_flat_map(ps_confident_);
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
                         bool is_ps, const TrainEvent& ev,
                         PrefetchHost& host);
    /** Fetch one off-chip granule into the on-chip cache. */
    sim::Cycle fetch_granule(bool is_ps, std::uint64_t first_key,
                             const TrainEvent& ev, PrefetchHost& host);

    MisbConfig cfg_;
    /**
     * Off-chip backing store (DRAM-resident metadata, unbounded). PS
     * entries are only ever added, never erased, so PS membership is
     * also the architectural Bloom filter: a block absent from
     * ps_backing_ is untracked and never costs an off-chip lookup.
     */
    util::FlatMap<std::uint64_t, std::uint64_t> ps_backing_;
    util::FlatMap<std::uint64_t, std::uint64_t> sp_backing_;
    /**
     * 1-bit remap confidence per mapped physical block (part of the PS
     * entry architecturally; its keys are a subset of ps_backing_'s):
     * a block is re-mapped to a new structural address only after two
     * consecutive disagreements, so blocks with several valid
     * successors stop churning the structural space. Presence is the
     * bit; the value is unused.
     */
    util::FlatMap<std::uint64_t, std::uint8_t> ps_confident_;
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
