/**
 * @file
 * Dynamic metadata-store sizing (paper Section 3, "Adjusting the Size
 * of the Metadata Store").
 *
 * Two sampled OPTgen sandboxes model the *optimal* metadata hit rate
 * at the candidate store sizes (512 KB and 1 MB by default; ~1 KB of
 * state each thanks to access sampling). Every epoch (50 K metadata
 * accesses) the controller walks the size ladder: grow when the next
 * size up improves optimal hit rate by more than 5 %, shrink when the
 * next size down loses less than 5 %.
 */
#ifndef TRIAGE_CORE_PARTITION_HPP
#define TRIAGE_CORE_PARTITION_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "replacement/optgen.hpp"
#include "sim/types.hpp"

namespace triage::obs {
class EventTrace;
enum class PartitionEvent : std::uint8_t;
class PartitionTimeline;
} // namespace triage::obs

namespace triage::core {

/** Controller knobs. */
struct PartitionConfig {
    /** Candidate store sizes, ascending, not including 0. */
    std::vector<std::uint64_t> sizes = {512 * 1024, 1024 * 1024};
    std::uint64_t epoch_accesses = 50000;
    double hysteresis = 0.05; ///< the 5 % rule
    /** Sample 1-in-2^sample_shift metadata accesses into the sandboxes. */
    std::uint32_t sample_shift = 8;
    /** Initial ladder position (sizes.size() = largest; 0 = no store). */
    std::uint32_t initial_level = 2;
    /**
     * Epochs whose verdict must agree before the level moves. OPTgen
     * needs a full history window before its hit rates mean anything,
     * and the paper observes partitions change infrequently; demanding
     * consecutive agreement prevents a cold sandbox from prematurely
     * surrendering the store.
     */
    std::uint32_t confirm_epochs = 2;
    /**
     * Utility gate (the paper's "future work" extension, Section 4.2):
     * when the store is actively prefetching (issued prefetches exceed
     * PartitionController::GATE_MIN_ISSUED_FRACTION of the epoch's
     * metadata accesses) but the prefetches are rarely consumed
     * (useful/issued below gate_min_accuracy), the metadata is not
     * earning its LLC ways regardless of its hit rate, and the verdict
     * steps one rung down the ladder. A cold or quiet store is
     * inconclusive and never gated. Set gate_min_accuracy to 0 for
     * pure paper behaviour.
     *
     * 0 disables the gate entirely — the default, matching the paper:
     * its Section 4.2 explicitly leaves utility-aware partitioning to
     * future work, and at this reproduction's scaled-down windows the
     * gate's warm-up judgment window overlaps the store's own warm-up.
     * Enable (e.g. 0.25) to experiment with the extension.
     */
    double gate_min_accuracy = 0.0;
    /** Epochs a level must be resident before the gate may judge it
     *  (temporal stores need a full reuse cycle to warm up). */
    std::uint32_t gate_min_epochs = 8;
    /** Epochs growth stays blocked after the gate fires. */
    std::uint32_t gate_cooldown_epochs = 10;
};

/**
 * How the controller spent its epochs: every end_epoch() increments
 * `epochs` plus exactly one of the outcome counters, so they always sum
 * to `epochs`. `gate_fires` counts utility-gate activations separately
 * (a gated epoch also lands in changed/pending/holds).
 */
struct PartitionDecisionStats {
    std::uint64_t epochs = 0;
    std::uint64_t warmup_epochs = 0;
    std::uint64_t holds = 0;
    std::uint64_t pending = 0; ///< change wanted, awaiting confirmation
    std::uint64_t changes = 0;
    std::uint64_t cooldown_suppressed = 0;
    std::uint64_t gate_fires = 0; ///< not part of the epoch sum
};

/** OPTgen-sandbox based size controller for one core. */
class PartitionController
{
  public:
    /** OPTgen history window, as a multiple of sandbox capacity. */
    static constexpr std::uint32_t HISTORY_FACTOR = 8;
    /** No decisions until this many sampled accesses accumulated. */
    static constexpr std::uint64_t WARMUP_SAMPLES = 512;
    /** The utility gate judges only a store whose issued prefetches
     *  exceed this fraction of the epoch's metadata accesses. */
    static constexpr double GATE_MIN_ISSUED_FRACTION = 0.01;

    explicit PartitionController(PartitionConfig cfg = {});

    /**
     * Observe one metadata access (keyed by trigger address). Epochs
     * advance on every access, but only @p visible accesses feed the
     * OPTgen sandboxes: reuse whose prefetch never reached memory is
     * invisible to all trained components (paper Section 3).
     * @return true if the epoch ended and the level may have changed.
     */
    bool observe(sim::Addr trigger, bool visible = true);

    /** Record that a Triage prefetch went to memory this epoch. */
    void note_issued() { ++issued_; }
    /** Record that a Triage prefetch was consumed by a demand. */
    void note_useful() { ++useful_; }

    /** Current ladder level: 0 = no metadata store. */
    std::uint32_t level() const { return level_; }

    /** Current store size in bytes (0 at level 0). */
    std::uint64_t
    size_bytes() const
    {
        return level_ == 0 ? 0 : cfg_.sizes[level_ - 1];
    }

    /** Last epoch's sampled optimal hit rate per candidate size. */
    const std::vector<double>& last_hit_rates() const { return last_rates_; }

    std::uint64_t epochs() const { return epochs_; }

    /** Attach (or detach, with null) the event trace. */
    void set_trace(obs::EventTrace* trace) { trace_ = trace; }

    /** Attach (or detach, with null) the decision timeline, recording
     *  one PartitionSample per epoch attributed to @p core. */
    void
    set_timeline(obs::PartitionTimeline* timeline, unsigned core)
    {
        timeline_ = timeline;
        core_ = core;
    }

    /** How every epoch so far was decided. */
    const PartitionDecisionStats& decision_stats() const { return dstats_; }

    const PartitionConfig& config() const { return cfg_; }

    /** Epochs growth stays suppressed (0 = gate cooldown inactive). */
    std::uint32_t cooldown() const { return cooldown_; }
    /** Consecutive epochs the pending verdict has agreed (0 = none). */
    std::uint32_t pending_count() const { return pending_count_; }
    /** Level awaiting confirmation (meaningful iff pending_count() > 0). */
    std::uint32_t pending_level() const { return pending_level_; }
    /** Epochs since the level last changed. */
    std::uint32_t epochs_at_level() const { return epochs_at_level_; }

    /** The OPTgen sandboxes, one per candidate size (verify harness). */
    const std::vector<replacement::OptGen>& sandboxes() const
    {
        return sandboxes_;
    }

    /**
     * Drive one epoch decision directly from the given per-candidate
     * hit rates, bypassing access sampling (test / verify seam). Marks
     * the sandboxes warm so the decision logic runs, and feeds the
     * utility gate with @p issued / @p useful as this epoch's counts.
     * @p rates must have one entry per configured size.
     */
    void force_epoch(const std::vector<double>& rates,
                     std::uint64_t issued = 0, std::uint64_t useful = 0);

    /**
     * Internal-consistency sweep for the verify harness: level within
     * the ladder, pending confirmation below the confirm threshold,
     * cooldown within the configured window, outcome counters summing
     * to epochs. Calls @p report once per violation.
     */
    void self_check(
        const std::function<void(const std::string&)>& report) const;

    /**
     * Save/restore sandboxes, rate history, epoch position and the
     * decision-ladder state. Config is construction-time.
     */
    void
    checkpoint(sim::Snapshot& s)
    {
        s.section("triage.partition");
        for (auto& sb : sandboxes_)
            sb.checkpoint(s);
        s.io_pod_vec(last_rates_);
        s.io(accesses_);
        s.io(sampled_);
        s.io(level_);
        s.io(epochs_);
        s.io(pending_level_);
        s.io(pending_count_);
        s.io(useful_);
        s.io(issued_);
        s.io(epochs_at_level_);
        s.io(cooldown_);
        s.io_pod(dstats_);
    }

  private:
    void end_epoch();
    /** Decision half of end_epoch(): everything after rate harvest. */
    void decide_epoch();
    void record_sample(std::uint32_t verdict, obs::PartitionEvent event);

    PartitionConfig cfg_;
    std::vector<replacement::OptGen> sandboxes_; ///< one per size
    std::vector<double> last_rates_;
    std::uint64_t accesses_ = 0;
    std::uint64_t sampled_ = 0;
    std::uint32_t level_;
    std::uint64_t epochs_ = 0;
    std::uint32_t pending_level_ = 0; ///< candidate awaiting confirmation
    std::uint32_t pending_count_ = 0;
    std::uint64_t useful_ = 0; ///< consumed prefetches this epoch
    std::uint64_t issued_ = 0; ///< memory-bound prefetches this epoch
    std::uint32_t epochs_at_level_ = 0;
    std::uint32_t cooldown_ = 0;
    obs::EventTrace* trace_ = nullptr;
    obs::PartitionTimeline* timeline_ = nullptr;
    unsigned core_ = 0;
    PartitionDecisionStats dstats_;
};

} // namespace triage::core

#endif // TRIAGE_CORE_PARTITION_HPP
