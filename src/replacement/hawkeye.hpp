/**
 * @file
 * Hawkeye replacement (Jain & Lin, ISCA 2016): learn from OPT's
 * decisions on sampled sets, predict per-PC whether lines will be
 * cache-friendly, and manage insertion/eviction with RRIP state.
 *
 * Triage modifies Hawkeye for its metadata store (Section 3): training
 * events are filtered so only metadata reuse that produced a
 * *non-redundant* prefetch trains positively. That filtering lives in
 * triage::MetadataStore; this class implements the policy itself and is
 * also usable as a drop-in data-cache policy.
 */
#ifndef TRIAGE_REPLACEMENT_HAWKEYE_HPP
#define TRIAGE_REPLACEMENT_HAWKEYE_HPP

#include <cstdint>
#include "util/flat_map.hpp"
#include <vector>

#include "cache/replacement.hpp"
#include "replacement/optgen.hpp"

namespace triage::replacement {

/** Tuning knobs for Hawkeye. */
struct HawkeyeConfig {
    /** Number of sampled sets feeding OPTgen (power of two). */
    std::uint32_t sampled_sets = 64;
    /** Predictor table entries (3-bit counters), power of two. */
    std::uint32_t predictor_entries = 8192;
    /** History window as a multiple of associativity. */
    std::uint32_t history_factor = 8;
    /** Max RRPV (7 in the paper). */
    std::uint8_t max_rrpv = 7;
};

/**
 * PC-indexed 3-bit confidence predictor shared by Hawkeye instances.
 * Exposed separately so Triage's metadata policy can train it under its
 * own filtering rules.
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
    Hawkeye(std::uint32_t sets, std::uint32_t assoc,
            HawkeyeConfig cfg = {});

    void on_hit(const cache::ReplAccess& a) override;
    void on_insert(const cache::ReplAccess& a) override;
    void on_miss(std::uint32_t set, sim::Addr tag, sim::Pc pc) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set, std::uint32_t way_begin,
                         std::uint32_t way_end) override;
    const char* name() const override { return "hawkeye"; }

    const HawkeyePredictor& predictor() const { return predictor_; }

    /** Fraction of sampled accesses OPT would have hit (diagnostics). */
    double sampled_opt_hit_rate() const;

    void
    checkpoint(sim::Snapshot& s) override
    {
        s.section("repl.hawkeye");
        predictor_.checkpoint(s);
        for (auto& sampled : samplers_) {
            sampled.optgen.checkpoint(s);
            s.io_flat_map(sampled.last_pc);
            s.io(sampled.last_prune);
        }
        s.io_pod_vec(rrpv_);
        s.io_pod_vec(line_pcs_);
    }

  private:
    struct SampledSet {
        OptGen optgen;
        /** addr -> PC of the most recent access (the training target). */
        util::FlatMap<std::uint64_t, sim::Pc> last_pc;
        std::uint64_t last_prune = 0;

        explicit SampledSet(std::uint32_t assoc, std::uint32_t factor)
            : optgen(assoc, factor)
        {}
    };

    bool is_sampled(std::uint32_t set) const;
    SampledSet& sampler_for(std::uint32_t set);
    void sample_access(std::uint32_t set, sim::Addr tag, sim::Pc pc);
    std::uint8_t& rrpv(std::uint32_t set, std::uint32_t way);
    sim::Pc& line_pc(std::uint32_t set, std::uint32_t way);

    std::uint32_t sets_;
    std::uint32_t assoc_;
    HawkeyeConfig cfg_;
    std::uint32_t sample_shift_; ///< sampled iff low bits pattern matches
    std::uint32_t sample_mask_;
    HawkeyePredictor predictor_;
    std::vector<SampledSet> samplers_;
    std::vector<std::uint8_t> rrpv_;
    std::vector<sim::Pc> line_pcs_;
};

} // namespace triage::replacement

#endif // TRIAGE_REPLACEMENT_HAWKEYE_HPP
