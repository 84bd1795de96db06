/**
 * @file
 * Replacement-policy interface used by SetAssocCache and by Triage's
 * metadata store. Concrete policies live in src/replacement/.
 */
#ifndef TRIAGE_CACHE_REPLACEMENT_HPP
#define TRIAGE_CACHE_REPLACEMENT_HPP

#include <cstdint>
#include <memory>

#include "sim/config.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace triage::cache {

/**
 * Direct view of a concrete LRU policy's state, for hosts that want to
 * run the (trivial) LRU bookkeeping inline instead of paying a virtual
 * call per touch. The policy object remains the owner; the view only
 * aliases its storage (docs/performance.md).
 */
struct LruFastView {
    std::uint64_t* stamps = nullptr; ///< sets x assoc recency stamps
    std::uint64_t* clock = nullptr;  ///< shared monotonic counter
    std::uint32_t assoc = 0;
};

/** Per-access context handed to the replacement policy. */
struct ReplAccess {
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    sim::Addr tag = 0; ///< block address (or metadata key)
    sim::Pc pc = 0;    ///< PC of the triggering access (Hawkeye training)
    bool is_prefetch = false;
    /**
     * Let on_hit() train history-based policies (Hawkeye's sampler)
     * before it predicts. Triage's metadata store passes false and,
     * for an access its filter lets through, trains afterwards with
     * on_miss() (paper Section 3, "Metadata Replacement").
     */
    bool train = true;
};

/**
 * Replacement counters a host owns and binds into its policy with
 * ReplacementPolicy::bind_stats(), so they survive a policy rebuild.
 * Triage's metadata store counts the visible/hidden split of its
 * filtered training stream itself; Hawkeye bumps the rest.
 */
struct ReplStats {
    std::uint64_t visible_events = 0; ///< accesses that trained OPTgen
    std::uint64_t hidden_events = 0;  ///< filtered out (redundant pf)
    std::uint64_t optgen_hits = 0;    ///< sampled accesses OPT would hit
    std::uint64_t optgen_misses = 0;
    std::uint64_t friendly_inserts = 0; ///< predictor said cache-friendly
    std::uint64_t averse_inserts = 0;   ///< inserted at distant RRPV
    std::uint64_t victim_demotions = 0; ///< victim without a distant entry
};

/**
 * Replacement policy for one set-associative structure.
 *
 * The host structure owns validity; @c victim() is only consulted when
 * every candidate way is valid. @p way_begin / @p way_end bound the
 * ways eligible under the current partition mask.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** A resident entry was re-referenced. */
    virtual void on_hit(const ReplAccess& a) = 0;

    /** A new entry was installed in @p a.way (after victim()). */
    virtual void on_insert(const ReplAccess& a) = 0;

    /**
     * An access missed (before insertion); lets history-based policies
     * (Hawkeye) train even when the host decides not to insert.
     */
    virtual void on_miss(std::uint32_t set, sim::Addr tag, sim::Pc pc) = 0;

    /** Entry evicted or invalidated without reuse. */
    virtual void on_invalidate(std::uint32_t set, std::uint32_t way) = 0;

    /** Choose a victim way in [way_begin, way_end). */
    virtual std::uint32_t victim(std::uint32_t set, std::uint32_t way_begin,
                                 std::uint32_t way_end) = 0;

    virtual const char* name() const = 0;

    /**
     * Wall-clock-only hint: pull the policy's per-set rows toward the
     * host cache ahead of an access to @p set. No simulated effect.
     */
    virtual void prefetch_hint(std::uint32_t set) const { (void)set; }

    /**
     * Fill @p out with a direct view of this policy's state if it is a
     * plain LRU whose callbacks a host may replay inline (the LRU
     * callbacks are pure stamp updates, so running them in the host
     * instead of through the vtable is observationally identical).
     * Stateful policies keep the default and stay fully virtual.
     */
    virtual bool lru_fast_view(LruFastView* out)
    {
        (void)out;
        return false;
    }

    /**
     * Save/restore the policy's mutable state (recency stamps, RRPVs,
     * predictor tables, …). Geometry comes from construction and must
     * already match. Every concrete policy overrides this; the pure
     * interface has no state of its own.
     */
    virtual void checkpoint(sim::Snapshot& s) = 0;

    /** Attach (or detach, with null) host-owned counters. */
    void bind_stats(ReplStats* stats) { stats_ = stats; }

  protected:
    ReplStats* stats_ = nullptr;
};

/** Build the @p kind policy for a @p sets x @p assoc structure. */
std::unique_ptr<ReplacementPolicy>
make_policy(sim::ReplPolicy kind, std::uint32_t sets, std::uint32_t assoc);

} // namespace triage::cache

#endif // TRIAGE_CACHE_REPLACEMENT_HPP
