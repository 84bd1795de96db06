/**
 * @file
 * Two-level TLB model (Table 1: 48-entry fully-associative L1,
 * 1024-entry 4-way L2). Translation is identity (the workloads use
 * flat addresses); the model charges latency only: an L1-TLB miss adds
 * the L2-TLB latency, an L2-TLB miss adds a fixed page-walk penalty.
 */
#ifndef TRIAGE_SIM_TLB_HPP
#define TRIAGE_SIM_TLB_HPP

#include <cstdint>
#include <string>

#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "util/lru_table.hpp"

namespace triage::obs {
class Registry;
} // namespace triage::obs

namespace triage::sim {

/** Statistics. */
struct TlbStats {
    std::uint64_t accesses = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t walks = 0;
};

/** Two-level data TLB charging translation latency. */
class Tlb
{
  public:
    /**
     * @param l1_entries fully-associative first level.
     * @param l2_entries 4-way second level.
     */
    Tlb(std::uint32_t l1_entries, std::uint32_t l2_entries,
        std::uint32_t l2_latency, std::uint32_t walk_latency);

    /**
     * Translate the page of @p byte_addr.
     * @return extra cycles charged to this access.
     */
    std::uint32_t access(Addr byte_addr);

    const TlbStats& stats() const { return stats_; }
    void clear_stats() { stats_ = {}; }

    /** Bind access/miss/walk counters into @p reg under @p prefix. */
    void register_stats(obs::Registry& reg, const std::string& prefix) const;

    /** Save/restore warm TLB contents (docs/parallel-runs.md). */
    void
    checkpoint(Snapshot& s)
    {
        s.section("tlb");
        l1_.checkpoint(s);
        l2_.checkpoint(s);
        s.io_pod(stats_);
    }

  private:
    static constexpr unsigned PAGE_SHIFT = 12;
    static constexpr std::uint32_t L2_WAYS = 4;

    std::uint32_t l2_latency_;
    std::uint32_t walk_latency_;
    util::LruTable<> l1_; ///< fully associative: one set
    util::LruTable<> l2_; ///< 4-way, set = mix64(page) % sets
    TlbStats stats_;
};

} // namespace triage::sim

#endif // TRIAGE_SIM_TLB_HPP
