/**
 * @file
 * Hawkeye replacement (Jain & Lin, ISCA 2016): learn from OPT's
 * decisions on sampled sets, predict per-PC whether lines will be
 * cache-friendly, and manage insertion/eviction with RRIP state.
 *
 * Triage modifies Hawkeye for its metadata store (Section 3): training
 * events are filtered so only metadata reuse that produced a
 * *non-redundant* prefetch trains positively. That filtering lives in
 * triage::MetadataStore, which hits with ReplAccess::train false and
 * trains through on_miss() only what its filter lets through; this
 * class implements the policy itself and serves as a data-cache policy
 * too.
 */
#ifndef TRIAGE_REPLACEMENT_HAWKEYE_HPP
#define TRIAGE_REPLACEMENT_HAWKEYE_HPP

#include <cstdint>
#include "util/flat_map.hpp"
#include <vector>

#include "cache/replacement.hpp"
#include "replacement/optgen.hpp"

namespace triage::replacement {

/**
 * PC-indexed 3-bit confidence predictor behind Hawkeye's insertion and
 * eviction decisions.
 */
class HawkeyePredictor
{
  public:
    explicit HawkeyePredictor(std::uint32_t entries = 8192);

    void train_positive(sim::Pc pc) { train_positive_slot(slot_of(pc)); }
    void train_negative(sim::Pc pc) { train_negative_slot(slot_of(pc)); }
    /** Predicted cache-friendly? */
    bool predict(sim::Pc pc) const;
    /** Raw counter value (tests). */
    std::uint8_t counter(sim::Pc pc) const;

    /** Table slot @p pc trains and predicts through. A caller that
     *  keeps only this slot (not the PC) trains the same counter. */
    std::uint32_t slot_of(sim::Pc pc) const;
    void train_positive_slot(std::uint32_t slot);
    void train_negative_slot(std::uint32_t slot);
    std::uint32_t entries() const { return mask_ + 1; }

    void
    checkpoint(sim::Snapshot& s)
    {
        s.section("hawkeye.predictor");
        s.io_pod_vec(table_);
    }

  private:
    std::vector<std::uint8_t> table_;
    std::uint32_t mask_;
};

/** Full Hawkeye policy for a sets x assoc structure. */
class Hawkeye final : public cache::ReplacementPolicy
{
  public:
    /** Sets feeding OPTgen (all of them in a smaller structure). */
    static constexpr std::uint32_t SAMPLED_SETS = 64;
    /** OPTgen history window as a multiple of associativity. */
    static constexpr std::uint32_t HISTORY_FACTOR = 8;
    /** Max RRPV (7 in the paper). */
    static constexpr std::uint8_t MAX_RRPV = 7;

    Hawkeye(std::uint32_t sets, std::uint32_t assoc);

    void on_hit(const cache::ReplAccess& a) override;
    void on_insert(const cache::ReplAccess& a) override;
    void on_miss(std::uint32_t set, sim::Addr tag, sim::Pc pc) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set, std::uint32_t way_begin,
                         std::uint32_t way_end) override;
    const char* name() const override { return "hawkeye"; }

    void
    prefetch_hint(std::uint32_t set) const override
    {
        // Every callback reads this set's RRPV row and most write its
        // predictor-slot row; in a large structure indexed by a hashed
        // set (Triage's metadata store) both are rarely host-resident.
        __builtin_prefetch(rrpv_.data() + std::size_t{set} * assoc_, 1);
        __builtin_prefetch(slots_.data() + std::size_t{set} * assoc_, 1);
    }

    const HawkeyePredictor& predictor() const { return predictor_; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        s.section("repl.hawkeye");
        predictor_.checkpoint(s);
        for (auto& sampled : samplers_) {
            sampled.optgen.checkpoint(s);
            s.io_flat_map(sampled.last_pc);
        }
        s.io_pod_vec(rrpv_);
        s.io_pod_vec(slots_);
    }

  private:
    struct SampledSet {
        OptGen optgen;
        /** addr -> PC of the most recent access (the training target). */
        util::FlatMap<std::uint64_t, sim::Pc> last_pc;

        explicit SampledSet(std::uint32_t assoc)
            : optgen(assoc, HISTORY_FACTOR)
        {}
    };

    bool is_sampled(std::uint32_t set) const;
    void sample_access(std::uint32_t set, sim::Addr tag, sim::Pc pc);
    std::uint8_t& rrpv(std::uint32_t set, std::uint32_t way);
    /** Predictor slot of the PC that last touched (set, way). */
    std::uint16_t& slot(std::uint32_t set, std::uint32_t way);
    std::uint16_t slot_of(sim::Pc pc) const;

    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::uint32_t sample_shift_; ///< sampled iff low bits pattern matches
    std::uint32_t sample_mask_;
    HawkeyePredictor predictor_;
    std::vector<SampledSet> samplers_;
    std::vector<std::uint8_t> rrpv_;
    /**
     * Per line, predictor_.slot_of() of its last PC rather than the
     * 8-byte PC: victim()'s detraining is the only reader, and it
     * needs nothing else.
     */
    std::vector<std::uint16_t> slots_;
};

} // namespace triage::replacement

#endif // TRIAGE_REPLACEMENT_HAWKEYE_HPP
