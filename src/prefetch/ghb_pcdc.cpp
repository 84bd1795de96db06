#include "prefetch/ghb_pcdc.hpp"

#include "util/bitops.hpp"

namespace triage::prefetch {

std::vector<sim::Addr>
GhbPcdc::pc_history(sim::Pc pc, std::uint32_t n) const
{
    std::vector<sim::Addr> out;
    const IndexEntry& ie =
        index_[static_cast<std::uint32_t>(util::mix64(pc)) &
               (INDEX_ENTRIES - 1)];
    if (!ie.valid || ie.pc != pc)
        return out;
    std::uint64_t pos = ie.head;
    while (out.size() < n && pos != ~0ULL &&
           next_pos_ - pos <= GHB_ENTRIES) {
        const GhbEntry& e = ghb_[pos % GHB_ENTRIES];
        if (!e.valid)
            break;
        out.push_back(e.block);
        pos = e.prev;
    }
    return out;
}

void
GhbPcdc::train(const TrainEvent& ev, PrefetchHost& host)
{
    ++stats_.train_events;
    if (ev.l2_hit && !ev.was_prefetch_hit)
        return;

    // Link the new access into the GHB before predicting so the
    // current delta participates in the match.
    IndexEntry& ie =
        index_[static_cast<std::uint32_t>(util::mix64(ev.pc)) &
               (INDEX_ENTRIES - 1)];
    std::uint64_t prev_head =
        (ie.valid && ie.pc == ev.pc) ? ie.head : ~0ULL;
    ghb_[next_pos_ % GHB_ENTRIES] = {ev.block, prev_head, true};
    ie = {ev.pc, next_pos_, true};
    ++next_pos_;

    // Delta correlation: take the most recent HISTORY deltas of this
    // PC and search for the previous occurrence of that delta sequence
    // in the PC's history; replay the deltas that followed it.
    std::uint32_t need = HISTORY + 1;
    auto hist = pc_history(ev.pc, GHB_ENTRIES);
    if (hist.size() < need + HISTORY)
        return;
    // hist[0] is the current block; deltas[i] = hist[i] - hist[i+1].
    std::vector<std::int64_t> deltas;
    deltas.reserve(hist.size() - 1);
    for (std::size_t i = 0; i + 1 < hist.size(); ++i) {
        deltas.push_back(static_cast<std::int64_t>(hist[i]) -
                         static_cast<std::int64_t>(hist[i + 1]));
    }
    // Search for the newest earlier match of the leading delta pair.
    for (std::size_t m = HISTORY; m + HISTORY <= deltas.size(); ++m) {
        bool match = true;
        for (std::uint32_t k = 0; k < HISTORY; ++k) {
            if (deltas[m + k] != deltas[k]) {
                match = false;
                break;
            }
        }
        if (!match)
            continue;
        // Replay the deltas that preceded the matched position (they
        // came *after* it in program order).
        sim::Addr target = ev.block;
        std::uint32_t issued = 0;
        for (std::size_t k = m; k-- > 0 && issued < cfg_.degree;) {
            std::int64_t next =
                static_cast<std::int64_t>(target) + deltas[k];
            if (next <= 0)
                break;
            target = static_cast<sim::Addr>(next);
            send(ev, host, target, ev.now);
            ++issued;
        }
        return;
    }
}

} // namespace triage::prefetch
