/**
 * @file
 * Next-line / sequential prefetcher (Smith 1978, Jouppi 1990): the
 * simplest commercial baseline the paper's related work cites — on
 * every trigger access, prefetch the next N sequential lines.
 */
#ifndef TRIAGE_PREFETCH_NEXT_LINE_HPP
#define TRIAGE_PREFETCH_NEXT_LINE_HPP

#include "prefetch/prefetcher.hpp"

namespace triage::prefetch {

/** Tuning knobs. */
struct NextLineConfig {
    std::uint32_t degree = 1; ///< sequential lines per trigger
};

/** Sequential next-line prefetcher, tagged: it triggers on L2 misses
 *  and on first hits to prefetched lines. */
class NextLine final : public Prefetcher
{
  public:
    explicit NextLine(NextLineConfig cfg = {}) : cfg_(cfg) {}

    void
    train(const TrainEvent& ev, PrefetchHost& host) override
    {
        ++stats_.train_events;
        if (ev.l2_hit && !ev.was_prefetch_hit)
            return;
        for (std::uint32_t d = 1; d <= cfg_.degree; ++d)
            send(ev, host, ev.block + d, ev.now);
    }

    const std::string& name() const override { return name_; }

  private:
    NextLineConfig cfg_;
    std::string name_ = "next_line";
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_NEXT_LINE_HPP
