/**
 * @file
 * Training unit: remembers the most recently accessed block of each
 * load PC, producing PC-localized correlated pairs (A, B). Triage
 * trains on these pairs (paper Section 3.1, "Training"), and so do
 * MISB and ISB.
 */
#ifndef TRIAGE_PREFETCH_TRAINING_UNIT_HPP
#define TRIAGE_PREFETCH_TRAINING_UNIT_HPP

#include <cstdint>
#include <optional>
#include <utility>

#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "util/lru_table.hpp"

namespace triage::prefetch {

/** Small fully-associative PC -> last-block table with LRU. */
class TrainingUnit
{
  public:
    explicit TrainingUnit(std::uint32_t entries) : table_(1, entries) {}

    /**
     * Record that @p pc just accessed @p block.
     * @return the previous block accessed by this PC, if tracked and
     *         not @p block itself: the "A" of the pair (A, B = block).
     */
    std::optional<sim::Addr>
    update(sim::Pc pc, sim::Addr block)
    {
        sim::Addr* last = table_.find(0, pc);
        if (last == nullptr) {
            table_.insert(0, pc, block);
            return std::nullopt;
        }
        const sim::Addr prev = std::exchange(*last, block);
        if (prev == block)
            return std::nullopt; // same line: no new correlation
        return prev;
    }

    /** Peek without updating (tests). */
    std::optional<sim::Addr>
    last_of(sim::Pc pc) const
    {
        const sim::Addr* last = table_.peek(0, pc);
        return last == nullptr ? std::nullopt : std::optional(*last);
    }

    void
    checkpoint(sim::Snapshot& s)
    {
        s.section("pf.tu");
        table_.checkpoint(s);
    }

  private:
    util::LruTable<sim::Addr> table_;
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_TRAINING_UNIT_HPP
