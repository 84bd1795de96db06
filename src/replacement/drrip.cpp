#include "replacement/drrip.hpp"

#include "util/log.hpp"

namespace triage::replacement {

Drrip::Drrip(std::uint32_t sets, std::uint32_t assoc)
    : assoc_(assoc), rrpv_(static_cast<std::size_t>(sets) * assoc, MAX_RRPV),
      rng_(sets * 31 + assoc)
{
}

Drrip::SetRole
Drrip::role_of(std::uint32_t set) const
{
    // Leader sets are spread through the index space: one SRRIP and
    // one BRRIP leader per DUELING_STRIDE sets.
    std::uint32_t r = set % DUELING_STRIDE;
    if (r == 0)
        return SetRole::LeadSrrip;
    if (r == DUELING_STRIDE / 2)
        return SetRole::LeadBrrip;
    return SetRole::FollowSrrip;
}

std::uint8_t&
Drrip::rrpv(std::uint32_t set, std::uint32_t way)
{
    return rrpv_[static_cast<std::size_t>(set) * assoc_ + way];
}

void
Drrip::on_hit(const cache::ReplAccess& a)
{
    rrpv(a.set, a.way) = 0;
}

void
Drrip::on_miss(std::uint32_t set, sim::Addr, sim::Pc)
{
    // Misses in leader sets train the selector: a miss in the SRRIP
    // leader votes for BRRIP and vice versa.
    switch (role_of(set)) {
      case SetRole::LeadSrrip:
        psel_ = std::min(psel_ + 1, PSEL_MAX);
        break;
      case SetRole::LeadBrrip:
        psel_ = std::max(psel_ - 1, -PSEL_MAX - 1);
        break;
      default:
        break;
    }
}

void
Drrip::on_insert(const cache::ReplAccess& a)
{
    bool use_brrip;
    switch (role_of(a.set)) {
      case SetRole::LeadSrrip:
        use_brrip = false;
        break;
      case SetRole::LeadBrrip:
        use_brrip = true;
        break;
      default:
        use_brrip = psel_ > 0;
        break;
    }
    if (use_brrip) {
        // BRRIP: distant insertion, occasionally long.
        rrpv(a.set, a.way) =
            rng_.next_below(BRRIP_EPSILON) == 0
                ? static_cast<std::uint8_t>(MAX_RRPV - 1)
                : MAX_RRPV;
    } else {
        rrpv(a.set, a.way) = static_cast<std::uint8_t>(MAX_RRPV - 1);
    }
}

void
Drrip::on_invalidate(std::uint32_t set, std::uint32_t way)
{
    rrpv(set, way) = MAX_RRPV;
}

std::uint32_t
Drrip::victim(std::uint32_t set, std::uint32_t way_begin,
              std::uint32_t way_end)
{
    TRIAGE_ASSERT(way_begin < way_end);
    for (;;) {
        for (std::uint32_t w = way_begin; w < way_end; ++w) {
            if (rrpv(set, w) >= MAX_RRPV)
                return w;
        }
        for (std::uint32_t w = way_begin; w < way_end; ++w)
            ++rrpv(set, w);
    }
}

} // namespace triage::replacement
