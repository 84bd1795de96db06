#include "prefetch/markov.hpp"

#include <algorithm>

#include "util/bitops.hpp"

namespace triage::prefetch {

std::uint32_t
Markov::set_of(sim::Addr addr) const
{
    return static_cast<std::uint32_t>(util::mix64(addr) &
                                      (SETS - 1));
}

void
Markov::train(const TrainEvent& ev, PrefetchHost& host)
{
    ++stats_.train_events;
    if (ev.l2_hit && !ev.was_prefetch_hit)
        return;

    // Predict: issue all recorded successors (MRU first).
    if (const Successors* e = table_.find(set_of(ev.block), ev.block)) {
        for (sim::Addr s : *e) {
            if (s != 0 && s != ev.block)
                send(ev, host, s, ev.now);
        }
    }

    // Train the global predecessor's successor list (MRU insertion).
    if (have_last_ && last_miss_ != ev.block) {
        const std::uint32_t set = set_of(last_miss_);
        Successors* p = table_.find(set, last_miss_);
        Successors succ = p != nullptr ? *p : Successors{};
        auto hit = std::find(succ.begin(), succ.end(), ev.block);
        if (hit != succ.end()) {
            std::rotate(succ.begin(), hit, hit + 1);
        } else {
            std::rotate(succ.begin(), succ.end() - 1, succ.end());
            succ.front() = ev.block;
        }
        if (p != nullptr)
            *p = succ;
        else
            table_.insert(set, last_miss_, succ);
    }
    last_miss_ = ev.block;
    have_last_ = true;
}

} // namespace triage::prefetch
