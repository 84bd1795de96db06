/**
 * @file
 * The Triage prefetcher — the paper's contribution.
 *
 * Triage is a PC-localized temporal prefetcher whose metadata lives
 * entirely on chip, in a repurposed portion of the LLC:
 *
 *  - a Training Unit pairs each access with the previous access by the
 *    same PC and records the pair in the metadata store;
 *  - the metadata store is a compact table (4 B entries, 16 per LLC
 *    line, compressed tags) managed by a filtered Hawkeye policy that
 *    keeps only entries whose prefetches actually go to memory;
 *  - a dynamic partition controller (two OPTgen sandboxes, 5 % rule,
 *    50 K-access epochs) decides how much LLC each core's metadata
 *    deserves: 0, 512 KB or 1 MB.
 *
 * Degree-k prefetching walks the successor chain with k dependent
 * table lookups, each charged one LLC access of latency and energy.
 */
#ifndef TRIAGE_CORE_TRIAGE_HPP
#define TRIAGE_CORE_TRIAGE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "prefetch/prefetcher.hpp"
#include "prefetch/training_unit.hpp"
#include "triage/metadata_store.hpp"
#include "triage/partition.hpp"
#include "util/flat_map.hpp"

namespace triage::core {

/** Triage configuration. */
struct TriageConfig {
    /** Dynamic partitioning (Triage-Dynamic) vs a fixed store size. */
    bool dynamic = false;
    /** Store size for the static configuration. */
    std::uint64_t static_bytes = 1024 * 1024;
    StoreRepl repl = StoreRepl::Hawkeye;
    /**
     * Unlimited metadata ("Perfect" in Figure 9): an idealized
     * PC-localized temporal prefetcher with no capacity or LLC cost.
     */
    bool unlimited = false;
    bool compressed_tags = true;
    /**
     * Charge the LLC capacity (way partitioning) for the store. Figure
     * 9's sensitivity study assumes no capacity loss; everything else
     * keeps this on.
     */
    bool charge_llc_capacity = true;
    std::uint32_t degree = 1;
    /** Dynamic-partitioning knobs. */
    PartitionConfig partition{};
    /** Track per-entry reuse counts (Figure 1 instrumentation). */
    bool track_reuse = false;
};

/** The Triage prefetcher. */
class Triage final : public prefetch::Prefetcher
{
  public:
    /** Training Unit entries (paper Section 3.1). */
    static constexpr std::uint32_t TRAINING_UNIT_ENTRIES = 128;

    explicit Triage(TriageConfig cfg = {});

    void train(const prefetch::TrainEvent& ev,
               prefetch::PrefetchHost& host) override;
    /** Start pulling the metadata rows train() will walk (wall-clock
     *  latency only; the store is LLC-sized and rarely cache-hot). */
    void
    pre_train_hint(sim::Addr block) const override
    {
        if (!cfg_.unlimited)
            store_.prefetch_hint(block);
    }
    void on_prefetch_used(sim::Addr block, sim::Cycle now) override;
    const std::string& name() const override { return name_; }

    /** Base prefetcher counters plus store / partition sub-scopes. */
    void register_stats(obs::Registry& reg,
                        const std::string& prefix) const override;
    /** Adds per-epoch metadata hit rate and store-size probes. */
    void register_probes(obs::EpochSampler& sampler,
                         const std::string& prefix) const override;
    void set_trace(obs::EventTrace* trace) override;
    /** Forwarded to the partition controller (dynamic config only). */
    void set_partition_timeline(obs::PartitionTimeline* timeline,
                                unsigned core) override;

    const MetadataStore& store() const { return store_; }
    const PartitionController* partition() const
    {
        return cfg_.dynamic ? &partition_ : nullptr;
    }
    std::uint64_t current_store_bytes() const;

    /** Per-trigger reuse histogram (only with cfg.track_reuse). */
    const util::FlatMap<sim::Addr, std::uint32_t>&
    reuse_counts() const
    {
        return reuse_counts_;
    }

    void
    checkpoint(sim::Snapshot& s) override
    {
        Prefetcher::checkpoint(s);
        s.section("pf.triage");
        tu_.checkpoint(s);
        store_.checkpoint(s);
        partition_.checkpoint(s);
        s.io_flat_map(unlimited_map_);
        s.io_flat_map(reuse_counts_);
        s.io(capacity_requested_);
    }

  private:
    /** One chained metadata lookup; returns successor or nullopt. */
    std::optional<sim::Addr> lookup_next(sim::Addr trigger, unsigned core,
                                         prefetch::PrefetchHost& host);
    void ensure_capacity(const prefetch::TrainEvent& ev,
                         prefetch::PrefetchHost& host);

    TriageConfig cfg_;
    prefetch::TrainingUnit tu_;
    MetadataStore store_;
    PartitionController partition_;
    /** Unlimited-metadata mode table. */
    util::FlatMap<sim::Addr, sim::Addr> unlimited_map_;
    util::FlatMap<sim::Addr, std::uint32_t> reuse_counts_;
    bool capacity_requested_ = false;
    std::string name_;
};

/** Convenience factories matching the paper's configurations. */
std::unique_ptr<Triage> make_triage_static(std::uint64_t bytes,
                                           std::uint32_t degree = 1);
std::unique_ptr<Triage> make_triage_dynamic(std::uint32_t degree = 1);
std::unique_ptr<Triage> make_triage_unlimited(std::uint32_t degree = 1);

} // namespace triage::core

#endif // TRIAGE_CORE_TRIAGE_HPP
