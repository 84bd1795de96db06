#include "replacement/ship.hpp"

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::replacement {

Ship::Ship(std::uint32_t sets, std::uint32_t assoc)
    : assoc_(assoc),
      lines_(static_cast<std::size_t>(sets) * assoc, {MAX_RRPV, false, 0}),
      shct_(SHCT_ENTRIES, 1)
{
}

std::uint32_t
Ship::signature_of(sim::Pc pc) const
{
    return static_cast<std::uint32_t>(util::mix64(pc)) & (SHCT_ENTRIES - 1);
}

Ship::LineState&
Ship::line(std::uint32_t set, std::uint32_t way)
{
    return lines_[static_cast<std::size_t>(set) * assoc_ + way];
}

std::uint8_t
Ship::counter_of(sim::Pc pc) const
{
    return shct_[signature_of(pc)];
}

void
Ship::on_hit(const cache::ReplAccess& a)
{
    LineState& l = line(a.set, a.way);
    l.rrpv = 0;
    if (!l.outcome) {
        l.outcome = true;
        shct_[l.signature] =
            util::sat_inc<std::uint8_t>(shct_[l.signature], SHCT_MAX);
    }
}

void
Ship::on_miss(std::uint32_t, sim::Addr, sim::Pc)
{
}

void
Ship::on_insert(const cache::ReplAccess& a)
{
    LineState& l = line(a.set, a.way);
    l.signature = signature_of(a.pc);
    l.outcome = false;
    // Predicted-dead signatures insert at the eviction boundary.
    l.rrpv = shct_[l.signature] == 0
                 ? MAX_RRPV
                 : static_cast<std::uint8_t>(MAX_RRPV - 1);
}

void
Ship::on_invalidate(std::uint32_t set, std::uint32_t way)
{
    LineState& l = line(set, way);
    if (!l.outcome)
        shct_[l.signature] = util::sat_dec(shct_[l.signature]);
    l.rrpv = MAX_RRPV;
    l.outcome = false;
}

std::uint32_t
Ship::victim(std::uint32_t set, std::uint32_t way_begin,
             std::uint32_t way_end)
{
    TRIAGE_ASSERT(way_begin < way_end);
    for (;;) {
        for (std::uint32_t w = way_begin; w < way_end; ++w) {
            if (line(set, w).rrpv >= MAX_RRPV)
                return w;
        }
        for (std::uint32_t w = way_begin; w < way_end; ++w)
            ++line(set, w).rrpv;
    }
}

} // namespace triage::replacement
