/**
 * @file
 * Per-prefetch lifecycle tracking and Triage decision timelines.
 *
 * The LifecycleTracker follows every L2 prefetch from issue to its
 * terminal state and classifies it:
 *
 *  - accurate:      first demand use found the fill complete;
 *  - late:          first demand use raced an in-flight fill;
 *  - early_evicted: the line left L2 before any demand touched it;
 *  - useless:       still resident and untouched when the run ended;
 *  - dropped:       never entered the hierarchy (bandwidth/MSHR drop).
 *
 * The hierarchy drives it through four hooks guarded by one pointer
 * test each (the same contract as EventTrace). Records are keyed by
 * (core, block); the invariant is that a record is open exactly while
 * an unused prefetched line is resident in that core's L2, so per core
 *
 *     accurate + late + early_evicted + useless == prefetches issued
 *
 * over any window that starts at reset() and ends at finalize().
 * Every record carries the PC of the demand access that triggered the
 * prefetch (set once per access, like EventTrace::set_context), which
 * feeds the per-PC attribution tables: top trigger PCs by coverage
 * (accurate + late) and by pollution (early_evicted + useless).
 *
 * The PartitionTimeline records one sample per Triage partition epoch
 * per core — OPTgen verdict, chosen level, and why the level did or
 * did not move — so dynamic-partition behaviour (paper Figures 15/19)
 * can be replayed decision by decision.
 */
#ifndef TRIAGE_OBS_LIFECYCLE_HPP
#define TRIAGE_OBS_LIFECYCLE_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace triage::obs {

namespace json {
class Writer;
} // namespace json

/** Terminal classification of one prefetch. */
enum class PrefetchClass : std::uint8_t {
    Accurate,
    Late,
    EarlyEvicted,
    Useless,
    Dropped,
    NumClasses
};

/** Stable lowercase name ("accurate", "late", ...). */
const char* prefetch_class_name(PrefetchClass c);

/** Lifecycle class counters (per core and per trigger PC). */
struct LifecycleCounts {
    std::uint64_t issued = 0; ///< records opened (entered the hierarchy)
    std::uint64_t accurate = 0;
    std::uint64_t late = 0;
    std::uint64_t early_evicted = 0;
    std::uint64_t useless = 0;
    std::uint64_t dropped = 0; ///< never entered (not part of issued)

    /** Records that reached a terminal class. */
    std::uint64_t
    closed() const
    {
        return accurate + late + early_evicted + useless;
    }
    /** Demand-consumed prefetches (the coverage contribution). */
    std::uint64_t
    covered() const
    {
        return accurate + late;
    }
    /** Prefetches that occupied L2 without ever being used. */
    std::uint64_t
    polluting() const
    {
        return early_evicted + useless;
    }
};

/** One row of a top-N trigger-PC attribution table. */
struct PcAttribution {
    std::uint64_t pc = 0;
    LifecycleCounts counts;
};

/** The tracker. Disabled (no cores configured) every hook no-ops. */
class LifecycleTracker
{
  public:
    /** (Re)arm for @p n_cores cores, clearing all previous state. */
    void reset(unsigned n_cores);
    bool enabled() const { return !per_core_.empty(); }
    unsigned
    num_cores() const
    {
        return static_cast<unsigned>(per_core_.size());
    }

    /** Stamp subsequent issues/drops with the demand PC that triggered
     *  them (set once per access by the hierarchy). */
    void set_trigger_pc(std::uint64_t pc) { trigger_pc_ = pc; }

    /** A prefetch entered the hierarchy (filled from LLC or DRAM). */
    void on_issue(unsigned core, std::uint64_t block);
    /** A prefetch was dropped before entering (bandwidth / MSHR). */
    void on_drop(unsigned core);
    /** First demand use of a prefetched line; @p late when in flight. */
    void on_use(unsigned core, std::uint64_t block, bool late);
    /** An unused prefetched line was evicted from L2. */
    void on_evict(unsigned core, std::uint64_t block);

    /**
     * Classify every still-open record as useless and stop tracking.
     * Called by Observability::freeze() at the end of a run, before
     * the registry snapshots bound stats. Idempotent.
     */
    void finalize();
    bool finalized() const { return finalized_; }

    const LifecycleCounts& core_counts(unsigned core) const;
    LifecycleCounts total() const;
    /** Records still awaiting a terminal state. */
    std::size_t open_records() const;

    /** Top @p n trigger PCs by covered() then issued, descending. */
    std::vector<PcAttribution> top_by_coverage(std::size_t n) const;
    /** Top @p n trigger PCs by polluting() + dropped, descending. */
    std::vector<PcAttribution> top_by_pollution(std::size_t n) const;

    /**
     * Serialize as one JSON object:
     * {"cores": [{...class counts...}], "total": {...},
     *  "top_pcs_by_coverage": [...], "top_pcs_by_pollution": [...]}
     */
    void write_json(json::Writer& w, std::size_t top_n = 10) const;

  private:
    struct PerCore {
        LifecycleCounts counts;
        /** Open records: block -> trigger PC. */
        std::unordered_map<std::uint64_t, std::uint64_t> open;
    };

    void close(PerCore& pc, std::uint64_t trigger_pc, PrefetchClass c);
    std::vector<PcAttribution> ranked(bool by_coverage,
                                      std::size_t n) const;

    std::uint64_t trigger_pc_ = 0;
    bool finalized_ = false;
    std::vector<PerCore> per_core_;
    std::unordered_map<std::uint64_t, LifecycleCounts> by_pc_;
};

/** Why a partition epoch ended with the level it did. */
enum class PartitionEvent : std::uint8_t {
    Warmup,   ///< sandboxes still cold; no decision taken
    Hold,     ///< verdict agreed with the current level
    Pending,  ///< change wanted, awaiting confirm_epochs agreement
    Changed,  ///< level moved this epoch
    Cooldown, ///< growth suppressed by the utility-gate cooldown
    Gated,    ///< utility gate stepped the verdict down
    NumEvents
};

/** Stable lowercase name ("warmup", "hold", ...). */
const char* partition_event_name(PartitionEvent e);

/** One per-epoch partition-controller decision record. */
struct PartitionSample {
    std::uint32_t core = 0;
    std::uint64_t epoch = 0; ///< controller epoch count (1-based)
    std::uint32_t level = 0; ///< ladder level after the decision
    std::uint32_t verdict = 0; ///< raw OPTgen verdict for the epoch
    std::uint64_t size_bytes = 0; ///< store size at the epoch boundary
    PartitionEvent event = PartitionEvent::Hold;
    std::vector<double> hit_rates; ///< sandbox hit rate per candidate
};

/**
 * Bounded, append-only timeline of partition decisions across cores.
 * Like the event trace, producers hold a raw pointer that is null when
 * nothing is attached.
 */
class PartitionTimeline
{
  public:
    static constexpr std::size_t DEFAULT_CAPACITY = 1u << 16;

    /** Clear and (re)arm for @p n_cores cores. */
    void reset(unsigned n_cores);
    void set_capacity(std::size_t cap) { capacity_ = cap; }

    void record(PartitionSample s);

    const std::vector<PartitionSample>& samples() const { return samples_; }
    unsigned num_cores() const { return n_cores_; }
    /** Samples not recorded because the capacity bound was hit. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Serialize as {"dropped": N, "cores": [[...samples...], ...]},
     * one inner array per core in epoch order.
     */
    void write_json(json::Writer& w) const;

  private:
    unsigned n_cores_ = 0;
    std::size_t capacity_ = DEFAULT_CAPACITY;
    std::uint64_t dropped_ = 0;
    std::vector<PartitionSample> samples_;
};

} // namespace triage::obs

#endif // TRIAGE_OBS_LIFECYCLE_HPP
