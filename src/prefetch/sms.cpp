#include "prefetch/sms.hpp"

#include "util/bitops.hpp"

namespace triage::prefetch {

std::uint64_t
Sms::pht_key(sim::Pc pc, std::uint32_t offset) const
{
    return util::mix64(pc * 37 + offset + 1);
}

std::uint32_t
Sms::pht_set(std::uint64_t key) const
{
    return static_cast<std::uint32_t>(key & (PHT_SETS - 1));
}

void
Sms::retire_generation(const Generation& g)
{
    // Only multi-block footprints are worth remembering.
    if ((g.pattern & (g.pattern - 1)) == 0)
        return;
    const std::uint64_t key = pht_key(g.trigger_pc, g.trigger_offset);
    const std::uint32_t set = pht_set(key);
    if (std::uint32_t* p = pht_.find(set, key))
        *p = g.pattern;
    else
        pht_.insert(set, key, g.pattern);
}

void
Sms::train(const TrainEvent& ev, PrefetchHost& host)
{
    ++stats_.train_events;
    sim::Addr region = ev.block >> REGION_SHIFT;
    auto offset = static_cast<std::uint32_t>(ev.block & (REGION_BLOCKS - 1));

    if (Generation* g = accum_.find(0, region)) {
        g->pattern |= 1u << offset;
        return;
    }
    if (const Generation* f = filter_.peek(0, region)) {
        if ((f->pattern & (1u << offset)) != 0)
            return; // same block again: still a one-block generation
        // Second distinct block: promote to the accumulation table.
        // Evicting an active accumulation generation ends it (its
        // footprint is recorded).
        Generation g = *f;
        g.pattern |= 1u << offset;
        filter_.erase(0, region);
        if (auto victim = accum_.insert(0, region, g))
            retire_generation(victim->value);
        return;
    }

    // New generation: predict its footprint from the PHT, then track it.
    const std::uint64_t key = pht_key(ev.pc, offset);
    if (const std::uint32_t* p = pht_.peek(pht_set(key), key)) {
        sim::Addr base = region << REGION_SHIFT;
        for (std::uint32_t b = 0; b < REGION_BLOCKS; ++b) {
            if ((*p & (1u << b)) == 0 || b == offset)
                continue;
            send(ev, host, base + b, ev.now);
        }
    }
    // A filter generation holds one block, so evicting one just
    // forgets it.
    filter_.insert(0, region, {ev.pc, offset, 1u << offset});
}

} // namespace triage::prefetch
