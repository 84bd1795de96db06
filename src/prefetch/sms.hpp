/**
 * @file
 * Spatial Memory Streaming (Somogyi et al., ISCA 2006): correlate
 * spatial footprints of memory regions with the (PC, region-offset)
 * that first touched the region, and replay the footprint on the next
 * trigger — the paper's representative of on-chip *irregular spatial*
 * prefetching.
 */
#ifndef TRIAGE_PREFETCH_SMS_HPP
#define TRIAGE_PREFETCH_SMS_HPP

#include <cstdint>

#include "prefetch/prefetcher.hpp"
#include "util/lru_table.hpp"

namespace triage::prefetch {

/** Tuning knobs (2 KB regions = 32 blocks, as in the original paper). */
struct SmsConfig {
    std::uint32_t region_blocks = 32;     ///< power of two
    std::uint32_t filter_entries = 32;    ///< regions touched once
    std::uint32_t accum_entries = 64;     ///< active generations
    std::uint32_t pht_sets = 1024;        ///< pattern history table
    std::uint32_t pht_ways = 4;
};

/** SMS prefetcher. */
class Sms final : public Prefetcher
{
  public:
    explicit Sms(SmsConfig cfg = {});

    void train(const TrainEvent& ev, PrefetchHost& host) override;
    const std::string& name() const override { return name_; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        Prefetcher::checkpoint(s);
        s.section("pf.sms");
        filter_.checkpoint(s);
        accum_.checkpoint(s);
        pht_.checkpoint(s);
    }

  private:
    /** A spatial generation, keyed by its region. */
    struct Generation {
        sim::Pc trigger_pc = 0;
        std::uint32_t trigger_offset = 0;
        std::uint32_t pattern = 0; ///< bitmap over region blocks
    };

    std::uint64_t pht_key(sim::Pc pc, std::uint32_t offset) const;
    std::uint32_t pht_set(std::uint64_t key) const;
    /** Close a generation: record its footprint in the PHT. */
    void retire_generation(const Generation& g);

    SmsConfig cfg_;
    std::uint32_t offset_mask_;
    unsigned region_shift_;
    /** Regions touched once; one set (fully associative). */
    util::LruTable<Generation> filter_;
    /** Active generations; one set. An eviction retires the victim. */
    util::LruTable<Generation> accum_;
    /** Pattern history table: pht_key -> footprint. */
    util::LruTable<std::uint32_t> pht_;
    std::string name_ = "sms";
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_SMS_HPP
