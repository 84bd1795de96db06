#include "replacement/hawkeye.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::replacement {

HawkeyePredictor::HawkeyePredictor(std::uint32_t entries)
    : table_(entries, 4), mask_(entries - 1)
{
    TRIAGE_ASSERT(util::is_pow2(entries));
}

std::uint32_t
HawkeyePredictor::slot_of(sim::Pc pc) const
{
    return static_cast<std::uint32_t>(util::mix64(pc)) & mask_;
}

void
HawkeyePredictor::train_positive_slot(std::uint32_t slot)
{
    auto& c = table_[slot];
    c = util::sat_inc<std::uint8_t>(c, 7);
}

void
HawkeyePredictor::train_negative_slot(std::uint32_t slot)
{
    auto& c = table_[slot];
    c = util::sat_dec<std::uint8_t>(c);
}

bool
HawkeyePredictor::predict(sim::Pc pc) const
{
    return table_[slot_of(pc)] >= 4;
}

std::uint8_t
HawkeyePredictor::counter(sim::Pc pc) const
{
    return table_[slot_of(pc)];
}

Hawkeye::Hawkeye(std::uint32_t sets, std::uint32_t assoc)
    : sets_(sets), assoc_(assoc),
      rrpv_(static_cast<std::size_t>(sets) * assoc, MAX_RRPV)
{
    TRIAGE_ASSERT(util::is_pow2(sets_));
    TRIAGE_ASSERT(predictor_.entries() <= 65536,
                  "predictor slots are stored in 16 bits");
    slots_.assign(static_cast<std::size_t>(sets) * assoc, slot_of(0));
    const std::uint32_t n_sampled = std::min(SAMPLED_SETS, sets_);
    // A set is sampled iff its low log2(sets/n_sampled) bits are zero;
    // sampler index is the remaining high bits.
    sample_shift_ = util::log2_exact(sets_ / n_sampled);
    sample_mask_ = (1u << sample_shift_) - 1;
    samplers_.reserve(n_sampled);
    for (std::uint32_t i = 0; i < n_sampled; ++i)
        samplers_.emplace_back(assoc_);
}

bool
Hawkeye::is_sampled(std::uint32_t set) const
{
    return (set & sample_mask_) == 0;
}

std::uint8_t&
Hawkeye::rrpv(std::uint32_t set, std::uint32_t way)
{
    return rrpv_[static_cast<std::size_t>(set) * assoc_ + way];
}

std::uint16_t&
Hawkeye::slot(std::uint32_t set, std::uint32_t way)
{
    return slots_[static_cast<std::size_t>(set) * assoc_ + way];
}

std::uint16_t
Hawkeye::slot_of(sim::Pc pc) const
{
    return static_cast<std::uint16_t>(predictor_.slot_of(pc));
}

void
Hawkeye::sample_access(std::uint32_t set, sim::Addr tag, sim::Pc pc)
{
    SampledSet& s = samplers_[set >> sample_shift_];
    sim::Pc* it = s.last_pc.find(tag);
    bool opt_hit = s.optgen.access(tag);
    if (stats_ != nullptr)
        ++(opt_hit ? stats_->optgen_hits : stats_->optgen_misses);
    if (it != nullptr) {
        // OPT's verdict trains the PC that last touched this line: that
        // load decided whether keeping the line would have paid off.
        if (opt_hit)
            predictor_.train_positive(*it);
        else
            predictor_.train_negative(*it);
        *it = pc;
    } else {
        s.last_pc.ref(tag) = pc;
    }
    // Bound the last-PC map (entries older than the OPTgen window are
    // dead weight; a size cap keeps memory honest without timestamps).
    if (s.last_pc.size() > 16ULL * assoc_ * HISTORY_FACTOR) {
        s.last_pc.clear();
    }
}

void
Hawkeye::on_hit(const cache::ReplAccess& a)
{
    if (a.train && is_sampled(a.set))
        sample_access(a.set, a.tag, a.pc);
    slot(a.set, a.way) = slot_of(a.pc);
    rrpv(a.set, a.way) = predictor_.predict(a.pc) ? 0 : MAX_RRPV;
}

void
Hawkeye::on_miss(std::uint32_t set, sim::Addr tag, sim::Pc pc)
{
    if (is_sampled(set))
        sample_access(set, tag, pc);
}

void
Hawkeye::on_insert(const cache::ReplAccess& a)
{
    slot(a.set, a.way) = slot_of(a.pc);
    bool friendly = predictor_.predict(a.pc);
    if (stats_ != nullptr)
        ++(friendly ? stats_->friendly_inserts : stats_->averse_inserts);
    if (friendly) {
        // Age everyone else so older friendly lines become victims
        // before fresher ones.
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (w == a.way)
                continue;
            auto& r = rrpv(a.set, w);
            if (r < MAX_RRPV - 1)
                ++r;
        }
        rrpv(a.set, a.way) = 0;
    } else {
        rrpv(a.set, a.way) = MAX_RRPV;
    }
}

void
Hawkeye::on_invalidate(std::uint32_t set, std::uint32_t way)
{
    rrpv(set, way) = MAX_RRPV;
    slot(set, way) = slot_of(0);
}

std::uint32_t
Hawkeye::victim(std::uint32_t set, std::uint32_t way_begin,
                std::uint32_t way_end)
{
    TRIAGE_ASSERT(way_begin < way_end);
    // Prefer a predicted-averse line (RRPV == max).
    for (std::uint32_t w = way_begin; w < way_end; ++w) {
        if (rrpv(set, w) == MAX_RRPV)
            return w;
    }
    // All friendly: evict the oldest and detrain its PC — the predictor
    // was wrong about this line's reuse fitting in the cache.
    std::uint32_t best = way_begin;
    std::uint8_t best_rrpv = rrpv(set, way_begin);
    for (std::uint32_t w = way_begin + 1; w < way_end; ++w) {
        if (rrpv(set, w) > best_rrpv) {
            best_rrpv = rrpv(set, w);
            best = w;
        }
    }
    if (stats_ != nullptr)
        ++stats_->victim_demotions;
    predictor_.train_negative_slot(slot(set, best));
    return best;
}

} // namespace triage::replacement
