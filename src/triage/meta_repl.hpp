/**
 * @file
 * Replacement policies for Triage's metadata store.
 *
 * The store needs its own policy interface (rather than the data-cache
 * one) because Triage's Hawkeye variant trains on a *filtered* access
 * stream: a metadata access only becomes visible to OPTgen and the PC
 * predictor if the prefetch it produced was issued to memory; accesses
 * whose prefetch was redundant are invisible (paper Section 3,
 * "Metadata Replacement"). Per-entry RRIP state is still updated on
 * every access.
 */
#ifndef TRIAGE_CORE_META_REPL_HPP
#define TRIAGE_CORE_META_REPL_HPP

#include <cstdint>
#include <memory>
#include "util/flat_map.hpp"
#include <vector>

#include "replacement/hawkeye.hpp"
#include "replacement/optgen.hpp"
#include "sim/types.hpp"

namespace triage::core {

/** Which replacement policy manages the metadata store. */
enum class MetaReplKind : std::uint8_t {
    Lru,
    Hawkeye,
};

/**
 * Counters for the filtered-training replacement stream. Owned by the
 * MetadataStore (NOT by the policy object — resize() rebuilds the
 * policy, and these must survive that) and bound into each policy
 * instance; every increment is null-guarded.
 */
struct MetaReplStats {
    std::uint64_t visible_events = 0; ///< accesses that trained OPTgen
    std::uint64_t hidden_events = 0;  ///< filtered out (redundant pf)
    std::uint64_t optgen_hits = 0;    ///< sampled accesses OPT would hit
    std::uint64_t optgen_misses = 0;
    std::uint64_t friendly_inserts = 0; ///< predictor said cache-friendly
    std::uint64_t averse_inserts = 0;   ///< inserted at distant RRPV
    std::uint64_t victim_demotions = 0; ///< victim without a distant entry
};

/** Replacement policy over a sets x ways metadata store. */
class MetaRepl
{
  public:
    virtual ~MetaRepl() = default;

    /**
     * A resident entry was accessed.
     * @p visible gates OPTgen / predictor training (false for accesses
     * that produced a redundant prefetch); per-entry state always
     * updates.
     */
    virtual void on_hit(std::uint32_t set, std::uint32_t way,
                        std::uint64_t key, sim::Pc pc, bool visible) = 0;

    /** An access found no entry (trains history-based policies). */
    virtual void on_miss(std::uint32_t set, std::uint64_t key, sim::Pc pc,
                         bool visible) = 0;

    /** A new entry was installed at @p way. */
    virtual void on_insert(std::uint32_t set, std::uint32_t way,
                           std::uint64_t key, sim::Pc pc) = 0;

    virtual void on_invalidate(std::uint32_t set, std::uint32_t way) = 0;

    /** Choose a victim among [0, ways). */
    virtual std::uint32_t victim(std::uint32_t set) = 0;

    virtual const char* name() const = 0;

    /**
     * Wall-clock-only hint: pull the policy's per-set rows toward the
     * host cache ahead of an access to @p set (the metadata-store
     * prefetch hint fans out here). No simulated effect.
     */
    virtual void prefetch_hint(std::uint32_t set) const { (void)set; }

    /**
     * Save/restore the policy's mutable state (stamps / RRIP +
     * predictor + samplers). The bound MetaReplStats block is owned and
     * serialized by the MetadataStore, not here.
     */
    virtual void checkpoint(sim::Snapshot& s) = 0;

    /** Attach (or detach, with null) externally-owned counters. */
    void bind_stats(MetaReplStats* stats) { stats_ = stats; }

  protected:
    MetaReplStats* stats_ = nullptr;
};

/** LRU metadata replacement (the Figure 9 baseline). */
class MetaLru final : public MetaRepl
{
  public:
    MetaLru(std::uint32_t sets, std::uint32_t ways);

    void on_hit(std::uint32_t set, std::uint32_t way, std::uint64_t key,
                sim::Pc pc, bool visible) override;
    void on_miss(std::uint32_t set, std::uint64_t key, sim::Pc pc,
                 bool visible) override;
    void on_insert(std::uint32_t set, std::uint32_t way, std::uint64_t key,
                   sim::Pc pc) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set) override;
    const char* name() const override { return "lru"; }

    void
    prefetch_hint(std::uint32_t set) const override
    {
        __builtin_prefetch(stamps_.data() + std::size_t{set} * ways_, 1);
    }

    void
    checkpoint(sim::Snapshot& s) override
    {
        s.section("meta_repl.lru");
        s.io(clock_);
        s.io_pod_vec(stamps_);
    }

  private:
    std::uint32_t ways_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamps_;
};

/** Triage's filtered-training Hawkeye for metadata. */
class MetaHawkeye final : public MetaRepl
{
  public:
    /**
     * @param sampled_sets how many sets feed OPTgen.
     * @param history_factor OPTgen window as a multiple of ways.
     */
    MetaHawkeye(std::uint32_t sets, std::uint32_t ways,
                std::uint32_t sampled_sets = 64,
                std::uint32_t history_factor = 8);

    void on_hit(std::uint32_t set, std::uint32_t way, std::uint64_t key,
                sim::Pc pc, bool visible) override;
    void on_miss(std::uint32_t set, std::uint64_t key, sim::Pc pc,
                 bool visible) override;
    void on_insert(std::uint32_t set, std::uint32_t way, std::uint64_t key,
                   sim::Pc pc) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set) override;
    const char* name() const override { return "hawkeye"; }

    void
    prefetch_hint(std::uint32_t set) const override
    {
        // Every on_hit/on_miss/on_insert reads this set's RRPV row and
        // most write the predictor-slot row; both live in large arrays
        // indexed by a hashed set, so they are rarely host-resident.
        __builtin_prefetch(rrpv_.data() + std::size_t{set} * ways_, 1);
        __builtin_prefetch(pc_slots_.data() + std::size_t{set} * ways_, 1);
    }

    const replacement::HawkeyePredictor& predictor() const
    {
        return predictor_;
    }

    void
    checkpoint(sim::Snapshot& s) override
    {
        s.section("meta_repl.hawkeye");
        predictor_.checkpoint(s);
        for (auto& sampled : samplers_) {
            sampled.optgen.checkpoint(s);
            s.io_flat_map(sampled.last_pc);
        }
        s.io_pod_vec(rrpv_);
        s.io_pod_vec(pc_slots_);
    }

  private:
    static constexpr std::uint8_t MAX_RRPV = 7;

    struct SampledSet {
        replacement::OptGen optgen;
        util::FlatMap<std::uint64_t, sim::Pc> last_pc;

        SampledSet(std::uint32_t ways, std::uint32_t factor)
            : optgen(ways, factor)
        {}
    };

    bool is_sampled(std::uint32_t set) const;
    void sample(std::uint32_t set, std::uint64_t key, sim::Pc pc);
    std::uint8_t& rrpv(std::uint32_t set, std::uint32_t way);
    /** Predictor slot of the PC that last touched (set, way). */
    std::uint16_t& pc_slot(std::uint32_t set, std::uint32_t way);

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t sample_shift_;
    std::uint32_t sample_mask_;
    std::uint32_t history_factor_;
    replacement::HawkeyePredictor predictor_;
    std::vector<SampledSet> samplers_;
    std::vector<std::uint8_t> rrpv_;
    /**
     * Per entry, predictor_.slot_of() of its last PC rather than the
     * 8-byte PC: victim()'s train_negative is the only reader, and it
     * needs nothing else.
     */
    std::vector<std::uint16_t> pc_slots_;
};

/** Factory. */
std::unique_ptr<MetaRepl> make_meta_repl(MetaReplKind kind,
                                         std::uint32_t sets,
                                         std::uint32_t ways);

} // namespace triage::core

#endif // TRIAGE_CORE_META_REPL_HPP
