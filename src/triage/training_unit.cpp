#include "triage/training_unit.hpp"

#include "util/log.hpp"
#include "util/row_scan.hpp"

namespace triage::core {

TrainingUnit::TrainingUnit(std::uint32_t entries)
    : capacity_(entries), valid_from_(entries), pcs_(entries),
      last_(entries), lru_(entries)
{
    TRIAGE_ASSERT(entries > 0);
}

std::optional<sim::Addr>
TrainingUnit::update(sim::Pc pc, sim::Addr block)
{
    // At most one live slot holds this PC (inserts only happen after a
    // full-miss scan), so the first match is the only match — a scan
    // of the live suffix of the packed PC array.
    const std::uint32_t hit = util::find_first_eq(
        pcs_.data() + valid_from_, capacity_ - valid_from_, pc);
    if (hit != util::NPOS) {
        const std::uint32_t i = valid_from_ + hit;
        sim::Addr prev = last_[i];
        last_[i] = block;
        lru_[i] = ++clock_;
        if (prev == block)
            return std::nullopt; // same line: no new correlation
        return prev;
    }
    // Miss: fill the last empty slot, else replace the LRU entry
    // (first-minimum stamp: the earliest slot wins ties).
    std::uint32_t victim;
    if (valid_from_ > 0) {
        victim = --valid_from_;
    } else {
        victim = util::min_index(lru_.data(), capacity_);
    }
    pcs_[victim] = pc;
    last_[victim] = block;
    lru_[victim] = ++clock_;
    return std::nullopt;
}

std::optional<sim::Addr>
TrainingUnit::last_of(sim::Pc pc) const
{
    const std::uint32_t hit = util::find_first_eq(
        pcs_.data() + valid_from_, capacity_ - valid_from_, pc);
    if (hit != util::NPOS)
        return last_[valid_from_ + hit];
    return std::nullopt;
}

} // namespace triage::core
