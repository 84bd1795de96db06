#include "prefetch/stride.hpp"

#include "util/bitops.hpp"

namespace triage::prefetch {

StridePrefetcher::Entry&
StridePrefetcher::entry_for(sim::Pc pc)
{
    return table_[static_cast<std::uint32_t>(util::mix64(pc)) &
                  (TABLE_ENTRIES - 1)];
}

void
StridePrefetcher::train(const TrainEvent& ev, PrefetchHost& host)
{
    ++stats_.train_events;
    Entry& e = entry_for(ev.pc);
    if (!e.valid || e.pc != ev.pc) {
        e = {ev.pc, ev.block, 0, 0, true};
        return;
    }
    std::int64_t delta =
        static_cast<std::int64_t>(ev.block) -
        static_cast<std::int64_t>(e.last_block);
    if (delta == 0)
        return; // same-line access carries no stride information
    if (delta == e.stride) {
        e.confidence = util::sat_inc<std::uint8_t>(e.confidence, 3);
    } else {
        if (e.confidence > 0) {
            --e.confidence;
        } else {
            e.stride = delta;
        }
    }
    e.last_block = ev.block;
    if (e.confidence >= CONFIDENCE_THRESHOLD && e.stride != 0) {
        for (std::uint32_t d = 1; d <= DEGREE; ++d) {
            std::int64_t target =
                static_cast<std::int64_t>(ev.block) +
                e.stride * static_cast<std::int64_t>(d);
            if (target <= 0)
                break;
            send(ev, host, static_cast<sim::Addr>(target), ev.now);
        }
    }
}

} // namespace triage::prefetch
