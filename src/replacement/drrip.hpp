/**
 * @file
 * DRRIP: dynamic re-reference interval prediction (Jaleel et al.,
 * ISCA 2010). Set-dueling between SRRIP and BRRIP insertion, with the
 * winner applied to follower sets. Provided as an alternative LLC data
 * policy for ablations against the paper's LRU-managed data partition.
 */
#ifndef TRIAGE_REPLACEMENT_DRRIP_HPP
#define TRIAGE_REPLACEMENT_DRRIP_HPP

#include <cstdint>
#include <vector>

#include "cache/replacement.hpp"
#include "util/rng.hpp"

namespace triage::replacement {

/** DRRIP replacement. */
class Drrip final : public cache::ReplacementPolicy
{
  public:
    static constexpr std::uint8_t MAX_RRPV = 3;
    /** 1-in-N dedicated sets per policy (set dueling). */
    static constexpr std::uint32_t DUELING_STRIDE = 32;
    /** BRRIP inserts at MAX_RRPV-1 with probability 1/BRRIP_EPSILON. */
    static constexpr std::uint32_t BRRIP_EPSILON = 32;
    /** Saturating policy-selector width (psel). */
    static constexpr std::int32_t PSEL_MAX = 1023;
    static_assert(DUELING_STRIDE >= 2);

    Drrip(std::uint32_t sets, std::uint32_t assoc);

    void on_hit(const cache::ReplAccess& a) override;
    void on_insert(const cache::ReplAccess& a) override;
    void on_miss(std::uint32_t set, sim::Addr tag, sim::Pc pc) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set, std::uint32_t way_begin,
                         std::uint32_t way_end) override;
    const char* name() const override { return "drrip"; }

    /** True when the selector currently favours SRRIP (tests). */
    bool srrip_winning() const { return psel_ <= 0; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        s.section("repl.drrip");
        s.io_pod_vec(rrpv_);
        s.io(psel_);
        rng_.checkpoint(s);
    }

  private:
    enum class SetRole : std::uint8_t { FollowSrrip, LeadSrrip, LeadBrrip };

    SetRole role_of(std::uint32_t set) const;
    std::uint8_t& rrpv(std::uint32_t set, std::uint32_t way);

    std::uint32_t assoc_;
    std::vector<std::uint8_t> rrpv_;
    std::int32_t psel_ = 0;
    util::Rng rng_;
};

} // namespace triage::replacement

#endif // TRIAGE_REPLACEMENT_DRRIP_HPP
