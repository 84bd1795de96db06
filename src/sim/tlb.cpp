#include "sim/tlb.hpp"

#include "obs/registry.hpp"

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::sim {

Tlb::Tlb(std::uint32_t l1_entries, std::uint32_t l2_entries,
         std::uint32_t l2_latency, std::uint32_t walk_latency)
    : l2_latency_(l2_latency), walk_latency_(walk_latency),
      l1_(1, l1_entries), l2_(l2_entries / L2_WAYS, L2_WAYS)
{
    TRIAGE_ASSERT(l2_entries % L2_WAYS == 0);
}

std::uint32_t
Tlb::access(Addr byte_addr)
{
    ++stats_.accesses;
    const Addr page = byte_addr >> PAGE_SHIFT;
    if (l1_.find(0, page) != nullptr)
        return 0;
    ++stats_.l1_misses;
    const auto set =
        static_cast<std::uint32_t>(util::mix64(page) % l2_.sets());
    if (l2_.find(set, page) != nullptr) {
        l1_.insert(0, page);
        return l2_latency_;
    }
    ++stats_.walks;
    l2_.insert(set, page);
    l1_.insert(0, page);
    return l2_latency_ + walk_latency_;
}

void
Tlb::register_stats(obs::Registry& reg, const std::string& prefix) const
{
    obs::Scope s(reg, prefix);
    s.bind_counter("accesses", &stats_.accesses);
    s.bind_counter("l1_misses", &stats_.l1_misses);
    s.bind_counter("walks", &stats_.walks);
}

} // namespace triage::sim
