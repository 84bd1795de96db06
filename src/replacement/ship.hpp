/**
 * @file
 * SHiP: signature-based hit prediction (Wu et al., MICRO 2011).
 * PC-signature counters learn whether lines inserted by a signature
 * are re-referenced; dead-on-arrival signatures insert at distant
 * RRPV. The intellectual midpoint between SRRIP and Hawkeye, included
 * to round out the replacement-policy design space used in ablations.
 */
#ifndef TRIAGE_REPLACEMENT_SHIP_HPP
#define TRIAGE_REPLACEMENT_SHIP_HPP

#include <cstdint>
#include <vector>

#include "cache/replacement.hpp"
#include "util/bitops.hpp"

namespace triage::replacement {

/** SHiP replacement. */
class Ship final : public cache::ReplacementPolicy
{
  public:
    static constexpr std::uint8_t MAX_RRPV = 3;
    /** Signature history counter table entries. */
    static constexpr std::uint32_t SHCT_ENTRIES = 16384;
    /** 3-bit counters. */
    static constexpr std::uint8_t SHCT_MAX = 7;
    static_assert(util::is_pow2(SHCT_ENTRIES));

    Ship(std::uint32_t sets, std::uint32_t assoc);

    void on_hit(const cache::ReplAccess& a) override;
    void on_insert(const cache::ReplAccess& a) override;
    void on_miss(std::uint32_t set, sim::Addr tag, sim::Pc pc) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set, std::uint32_t way_begin,
                         std::uint32_t way_end) override;
    const char* name() const override { return "ship"; }

    /** Counter for a PC signature (tests). */
    std::uint8_t counter_of(sim::Pc pc) const;

    void
    checkpoint(sim::Snapshot& s) override
    {
        s.section("repl.ship");
        s.io_vec(lines_, [](sim::Snapshot& a, LineState& l) {
            a.io(l.rrpv);
            a.io(l.outcome);
            a.io(l.signature);
        });
        s.io_pod_vec(shct_);
    }

  private:
    struct LineState {
        std::uint8_t rrpv;
        bool outcome; ///< re-referenced since insertion
        std::uint32_t signature;
    };

    std::uint32_t signature_of(sim::Pc pc) const;
    LineState& line(std::uint32_t set, std::uint32_t way);

    std::uint32_t assoc_;
    std::vector<LineState> lines_;
    std::vector<std::uint8_t> shct_;
};

} // namespace triage::replacement

#endif // TRIAGE_REPLACEMENT_SHIP_HPP
