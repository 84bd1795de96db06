/**
 * @file
 * Best-Offset prefetcher (Michaud, HPCA 2016) — winner of the 2nd Data
 * Prefetching Championship and the paper's representative of
 * state-of-the-art regular prefetching with on-chip metadata.
 *
 * BO learns a single block offset D that maximizes timeliness: an
 * offset scores a point whenever, for a trigger access to line X, line
 * X - D was recently *completed* (present in the recent-requests
 * table), meaning a prefetch issued at X - D would have been timely.
 * After a learning round, the best-scoring offset drives prefetches of
 * X + D on every trigger access.
 */
#ifndef TRIAGE_PREFETCH_BEST_OFFSET_HPP
#define TRIAGE_PREFETCH_BEST_OFFSET_HPP

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hpp"
#include "util/bitops.hpp"

namespace triage::prefetch {

/** Tuning knobs (defaults follow the HPCA'16 paper). */
struct BestOffsetConfig {
    std::uint32_t score_max = 31;   ///< learning ends when a score hits this
    std::uint32_t round_max = 100;  ///< ...or after this many full rounds
    std::uint32_t bad_score = 10;   ///< best < this disables prefetching
    std::uint32_t degree = 1;       ///< chained multiples of D per trigger
};

/** Best-Offset prefetcher. */
class BestOffset final : public Prefetcher
{
  public:
    /** Recent-requests table entries (HPCA'16). */
    static constexpr std::uint32_t RR_ENTRIES = 256;
    static_assert(util::is_pow2(RR_ENTRIES));

    explicit BestOffset(BestOffsetConfig cfg = {});

    void train(const TrainEvent& ev, PrefetchHost& host) override;
    void on_fill(sim::Addr block, sim::Cycle now,
                 bool was_prefetch) override;
    const std::string& name() const override { return name_; }

    /** Currently selected offset (0 while prefetching is disabled). */
    std::int32_t current_offset() const { return prefetching_on_ ? best_offset_ : 0; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        Prefetcher::checkpoint(s);
        s.section("pf.bo");
        s.io_pod_vec(scores_);
        s.io_pod_vec(rr_table_);
        s.io(test_index_);
        s.io(round_);
        s.io(best_offset_);
        s.io(prefetching_on_);
    }

  private:
    void rr_insert(sim::Addr block);
    bool rr_contains(sim::Addr block) const;
    void finish_learning_phase();

    BestOffsetConfig cfg_;
    std::vector<std::int32_t> offsets_; ///< candidate offsets
    std::vector<std::uint32_t> scores_;
    std::vector<sim::Addr> rr_table_;   ///< direct-mapped, tag = block
    std::uint32_t test_index_ = 0;
    std::uint32_t round_ = 0;
    std::int32_t best_offset_ = 1;
    bool prefetching_on_ = true;
    std::string name_ = "bo";
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_BEST_OFFSET_HPP
