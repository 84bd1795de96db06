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
#include "util/bitops.hpp"
#include "util/lru_table.hpp"

namespace triage::prefetch {

/** SMS prefetcher. */
class Sms final : public Prefetcher
{
  public:
    /** 2 KB regions = 32 blocks, as in the original paper. */
    static constexpr std::uint32_t REGION_BLOCKS = 32;
    /** Regions touched once. */
    static constexpr std::uint32_t FILTER_ENTRIES = 32;
    /** Active generations. */
    static constexpr std::uint32_t ACCUM_ENTRIES = 64;
    /** Pattern history table geometry. */
    static constexpr std::uint32_t PHT_SETS = 1024;
    static constexpr std::uint32_t PHT_WAYS = 4;
    static_assert(util::is_pow2(REGION_BLOCKS) && REGION_BLOCKS <= 32,
                  "a footprint is a 32-bit bitmap over region blocks");
    static_assert(util::is_pow2(PHT_SETS));

    Sms()
        : filter_(1, FILTER_ENTRIES), accum_(1, ACCUM_ENTRIES),
          pht_(PHT_SETS, PHT_WAYS)
    {
    }

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

    static constexpr unsigned REGION_SHIFT = util::log2_exact(REGION_BLOCKS);

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
