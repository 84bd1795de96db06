/**
 * @file
 * Markov prefetcher (Joseph & Grunwald, ISCA 1997): a bounded on-chip
 * table mapping each miss address to its most likely successors, with
 * no PC localization. Included as the historical table-based baseline
 * Triage's Section 2 discusses (its 2-4x larger tables motivate
 * Triage's PC-localized single-successor entries).
 */
#ifndef TRIAGE_PREFETCH_MARKOV_HPP
#define TRIAGE_PREFETCH_MARKOV_HPP

#include <array>
#include <cstdint>

#include "prefetch/prefetcher.hpp"
#include "util/bitops.hpp"
#include "util/lru_table.hpp"

namespace triage::prefetch {

/** Markov correlation-table prefetcher. */
class Markov final : public Prefetcher
{
  public:
    /** Correlation-table entries and associativity. */
    static constexpr std::uint32_t TABLE_ENTRIES = 65536;
    static constexpr std::uint32_t WAYS = 8;
    static constexpr std::uint32_t SETS = TABLE_ENTRIES / WAYS;
    static_assert(util::is_pow2(SETS));

    Markov() : table_(SETS, WAYS) {}

    void train(const TrainEvent& ev, PrefetchHost& host) override;
    const std::string& name() const override { return name_; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        Prefetcher::checkpoint(s);
        s.section("pf.markov");
        table_.checkpoint(s);
        s.io(last_miss_);
        s.io(have_last_);
    }

  private:
    /** Successor slots per entry, most recent first (0 = unused). */
    static constexpr std::size_t SUCCESSORS = 2;
    using Successors = std::array<sim::Addr, SUCCESSORS>;

    std::uint32_t set_of(sim::Addr addr) const;

    util::LruTable<Successors> table_;
    sim::Addr last_miss_ = 0;
    bool have_last_ = false;
    std::string name_ = "markov";
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_MARKOV_HPP
