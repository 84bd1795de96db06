#include "prefetch/best_offset.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::prefetch {

namespace {

/**
 * Michaud's candidate list: offsets in [1, 256] whose prime factors are
 * all in {2, 3, 5} (52 values). Generated once.
 */
std::vector<std::int32_t>
make_offsets()
{
    std::vector<std::int32_t> v;
    for (std::int32_t n = 1; n <= 256; ++n) {
        std::int32_t m = n;
        for (std::int32_t p : {2, 3, 5}) {
            while (m % p == 0)
                m /= p;
        }
        if (m == 1)
            v.push_back(n);
    }
    return v;
}

} // namespace

BestOffset::BestOffset(BestOffsetConfig cfg)
    : cfg_(cfg), offsets_(make_offsets()),
      scores_(offsets_.size(), 0),
      rr_table_(RR_ENTRIES, ~sim::Addr{0})
{
    TRIAGE_ASSERT(cfg_.score_max >= cfg_.bad_score,
                  "an offset could never reach bad_score");
}

void
BestOffset::rr_insert(sim::Addr block)
{
    rr_table_[static_cast<std::uint32_t>(util::mix64(block)) &
              (RR_ENTRIES - 1)] = block;
}

bool
BestOffset::rr_contains(sim::Addr block) const
{
    return rr_table_[static_cast<std::uint32_t>(util::mix64(block)) &
                     (RR_ENTRIES - 1)] == block;
}

void
BestOffset::on_fill(sim::Addr block, sim::Cycle, bool was_prefetch)
{
    // A completed fill of X means a request for X - D issued when X was
    // demanded would have been timely; the RR table remembers the base
    // address that would have triggered it.
    if (was_prefetch) {
        std::int64_t base =
            static_cast<std::int64_t>(block) - best_offset_;
        if (base > 0)
            rr_insert(static_cast<sim::Addr>(base));
    } else {
        rr_insert(block);
    }
}

void
BestOffset::finish_learning_phase()
{
    auto best = std::max_element(scores_.begin(), scores_.end());
    std::uint32_t best_score = *best;
    best_offset_ = offsets_[static_cast<std::size_t>(
        best - scores_.begin())];
    prefetching_on_ = best_score >= cfg_.bad_score;
    std::fill(scores_.begin(), scores_.end(), 0);
    test_index_ = 0;
    round_ = 0;
}

void
BestOffset::train(const TrainEvent& ev, PrefetchHost& host)
{
    ++stats_.train_events;
    // BO triggers on L2 misses and on first hits to prefetched lines.
    if (ev.l2_hit && !ev.was_prefetch_hit)
        return;

    // Learning: test one candidate offset per trigger access.
    std::int64_t probe = static_cast<std::int64_t>(ev.block) -
                         offsets_[test_index_];
    if (probe > 0 && rr_contains(static_cast<sim::Addr>(probe))) {
        if (++scores_[test_index_] >= cfg_.score_max) {
            finish_learning_phase();
            test_index_ = 0;
        }
    }
    if (++test_index_ >= offsets_.size()) {
        test_index_ = 0;
        if (++round_ >= cfg_.round_max)
            finish_learning_phase();
    }

    if (!prefetching_on_)
        return;
    for (std::uint32_t d = 1; d <= cfg_.degree; ++d) {
        std::int64_t target =
            static_cast<std::int64_t>(ev.block) +
            static_cast<std::int64_t>(best_offset_) * d;
        if (target <= 0)
            break;
        send(ev, host, static_cast<sim::Addr>(target), ev.now);
    }
}

} // namespace triage::prefetch
