/**
 * @file
 * Least-recently-used replacement.
 */
#ifndef TRIAGE_REPLACEMENT_LRU_HPP
#define TRIAGE_REPLACEMENT_LRU_HPP

#include <cstdint>
#include <vector>

#include "cache/replacement.hpp"

namespace triage::replacement {

/** Classic LRU over a sets x assoc structure. */
class Lru final : public cache::ReplacementPolicy
{
  public:
    Lru(std::uint32_t sets, std::uint32_t assoc);

    void on_hit(const cache::ReplAccess& a) override;
    void on_insert(const cache::ReplAccess& a) override;
    void on_miss(std::uint32_t set, sim::Addr tag, sim::Pc pc) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set, std::uint32_t way_begin,
                         std::uint32_t way_end) override;
    const char* name() const override { return "lru"; }

    void
    prefetch_hint(std::uint32_t set) const override
    {
        __builtin_prefetch(stamps_.data() + std::size_t{set} * assoc_, 1);
    }

    /** LRU state is just stamps + a clock; hosts may drive it inline. */
    bool
    lru_fast_view(cache::LruFastView* out) override
    {
        out->stamps = stamps_.data();
        out->clock = &clock_;
        out->assoc = assoc_;
        return true;
    }

    void
    checkpoint(sim::Snapshot& s) override
    {
        s.section("repl.lru");
        s.io(clock_);
        s.io_pod_vec(stamps_);
    }

  private:
    std::uint64_t& stamp(std::uint32_t set, std::uint32_t way);

    std::uint32_t assoc_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamps_;
};

} // namespace triage::replacement

#endif // TRIAGE_REPLACEMENT_LRU_HPP
