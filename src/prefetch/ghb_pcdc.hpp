/**
 * @file
 * GHB PC/DC: delta-correlation prefetching over a global history
 * buffer (Nesbit & Smith, IEEE Micro 2005).
 *
 * The paper's related work cites delta correlation as the classic
 * "weaker form of correlation" that trades generality for metadata
 * compactness: instead of memorizing address pairs, PC/DC memorizes
 * per-PC *delta* sequences, which repeats well on strided and some
 * linked patterns but cannot capture arbitrary address correlation.
 * Included so the design-space comparisons have the on-chip temporal
 * middle ground between stride and full address correlation.
 */
#ifndef TRIAGE_PREFETCH_GHB_PCDC_HPP
#define TRIAGE_PREFETCH_GHB_PCDC_HPP

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hpp"
#include "util/bitops.hpp"

namespace triage::prefetch {

/** Tuning knobs. */
struct GhbPcdcConfig {
    std::uint32_t degree = 2; ///< deltas replayed per trigger
};

/** GHB-based per-PC delta-correlation prefetcher. */
class GhbPcdc final : public Prefetcher
{
  public:
    /** Circular history buffer entries. */
    static constexpr std::uint32_t GHB_ENTRIES = 256;
    /** PC index table entries. */
    static constexpr std::uint32_t INDEX_ENTRIES = 256;
    /** Deltas matched (a delta pair). */
    static constexpr std::uint32_t HISTORY = 2;
    static_assert(util::is_pow2(INDEX_ENTRIES));
    static_assert(HISTORY >= 1);

    explicit GhbPcdc(GhbPcdcConfig cfg = {})
        : cfg_(cfg), ghb_(GHB_ENTRIES), index_(INDEX_ENTRIES)
    {
    }

    void train(const TrainEvent& ev, PrefetchHost& host) override;
    const std::string& name() const override { return name_; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        Prefetcher::checkpoint(s);
        s.section("pf.ghb_pcdc");
        s.io_vec(ghb_, [](sim::Snapshot& a, GhbEntry& e) {
            a.io(e.block);
            a.io(e.prev);
            a.io(e.valid);
        });
        s.io_vec(index_, [](sim::Snapshot& a, IndexEntry& e) {
            a.io(e.pc);
            a.io(e.head);
            a.io(e.valid);
        });
        s.io(next_pos_);
    }

  private:
    struct GhbEntry {
        sim::Addr block = 0;
        /** Previous GHB position of the same PC (absolute), or ~0. */
        std::uint64_t prev = ~0ULL;
        bool valid = false;
    };

    struct IndexEntry {
        sim::Pc pc = 0;
        std::uint64_t head = ~0ULL; ///< newest GHB position for pc
        bool valid = false;
    };

    /** Walk this PC's chain, newest first; returns up to n blocks. */
    std::vector<sim::Addr> pc_history(sim::Pc pc, std::uint32_t n) const;

    GhbPcdcConfig cfg_;
    std::vector<GhbEntry> ghb_;
    std::vector<IndexEntry> index_;
    std::uint64_t next_pos_ = 0;
    std::string name_ = "ghb_pcdc";
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_GHB_PCDC_HPP
