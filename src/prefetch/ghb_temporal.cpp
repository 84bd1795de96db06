#include "prefetch/ghb_temporal.hpp"

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::prefetch {

GhbTemporal::GhbTemporal(GhbTemporalConfig cfg)
    : cfg_(cfg), ghb_(cfg.ghb_entries, 0),
      name_(cfg.mode == GhbIndexMode::SingleAddress ? "stms" : "domino")
{
    TRIAGE_ASSERT(util::is_pow2(cfg.ghb_entries));
}

std::uint64_t
GhbTemporal::index_key(sim::Addr block) const
{
    if (cfg_.mode == GhbIndexMode::SingleAddress)
        return block;
    // Domino: correlate on the (previous, current) pair. The hash can in
    // principle equal the FlatMap's all-ones empty sentinel; that one
    // value is folded onto its neighbour. Distinct pairs already collide
    // in this hashed index, so the fold is one more collision, not a new
    // behaviour. STMS keys are block addresses, whose top bits are
    // always clear.
    const std::uint64_t key =
        util::mix64(last_trigger_) ^ (block * 0x9e3779b97f4a7c15ULL);
    return key == decltype(index_)::EMPTY ? key - 1 : key;
}

void
GhbTemporal::train(const TrainEvent& ev, PrefetchHost& host)
{
    ++stats_.train_events;
    // Temporal prefetchers train on the miss stream (plus prefetched
    // hits, which would have been misses without the prefetcher).
    if (ev.l2_hit && !ev.was_prefetch_hit)
        return;

    // Idealized (paper Section 4.1): an off-chip metadata burst is
    // counted as traffic but takes no time and no DRAM channel.
    auto offchip = [&](bool is_write) {
        ++(is_write ? stats_.meta_offchip_writes : stats_.meta_offchip_reads);
        host.offchip_metadata_access(ev.core, ev.now, sim::BLOCK_SIZE,
                                     is_write, /*charge_time=*/false);
    };

    // --- Predict: find the previous occurrence and replay successors.
    if (cfg_.mode != GhbIndexMode::AddressPair || have_last_) {
        const std::uint64_t* last = index_.find(index_key(ev.block));
        offchip(false); // index probe
        if (last != nullptr && next_pos_ - *last <= cfg_.ghb_entries) {
            // History-buffer read (one burst covers a stream).
            offchip(false);
            for (std::uint32_t d = 1; d <= cfg_.degree; ++d) {
                std::uint64_t pos = *last + d;
                if (pos >= next_pos_)
                    break;
                sim::Addr target = ghb_[pos % cfg_.ghb_entries];
                if (target == ev.block)
                    continue;
                send(ev, host, target, ev.now);
            }
        }
    }

    // --- Record: append to the history buffer, update the index.
    ghb_[next_pos_ % cfg_.ghb_entries] = ev.block;
    index_.ref(index_key(ev.block)) = next_pos_;
    ++next_pos_;
    have_last_ = true;
    last_trigger_ = ev.block;

    // Index update write per trigger; buffer appends coalesce 8 entries
    // per 64 B burst.
    offchip(true);
    if (++appends_ % 8 == 0)
        offchip(true);

    // Bound the index map: drop entries that fell out of the buffer.
    if (index_.size() > 2ULL * cfg_.ghb_entries) {
        index_.erase_if([&](std::uint64_t, std::uint64_t pos) {
            return next_pos_ - pos > cfg_.ghb_entries;
        });
    }
}

} // namespace triage::prefetch
