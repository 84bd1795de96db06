#include "triage/meta_repl.hpp"

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::core {

MetaLru::MetaLru(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways), stamps_(static_cast<std::size_t>(sets) * ways, 0)
{
}

void
MetaLru::on_hit(std::uint32_t set, std::uint32_t way, std::uint64_t,
                sim::Pc, bool visible)
{
    stamps_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
    if (stats_ != nullptr)
        ++(visible ? stats_->visible_events : stats_->hidden_events);
}

void
MetaLru::on_miss(std::uint32_t, std::uint64_t, sim::Pc, bool visible)
{
    if (stats_ != nullptr)
        ++(visible ? stats_->visible_events : stats_->hidden_events);
}

void
MetaLru::on_insert(std::uint32_t set, std::uint32_t way, std::uint64_t,
                   sim::Pc)
{
    stamps_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
}

void
MetaLru::on_invalidate(std::uint32_t set, std::uint32_t way)
{
    stamps_[static_cast<std::size_t>(set) * ways_ + way] = 0;
}

std::uint32_t
MetaLru::victim(std::uint32_t set)
{
    std::uint32_t best = 0;
    std::uint64_t best_stamp =
        stamps_[static_cast<std::size_t>(set) * ways_];
    for (std::uint32_t w = 1; w < ways_; ++w) {
        std::uint64_t s = stamps_[static_cast<std::size_t>(set) * ways_ + w];
        if (s < best_stamp) {
            best_stamp = s;
            best = w;
        }
    }
    return best;
}

MetaHawkeye::MetaHawkeye(std::uint32_t sets, std::uint32_t ways,
                         std::uint32_t sampled_sets,
                         std::uint32_t history_factor)
    : sets_(sets), ways_(ways), history_factor_(history_factor),
      rrpv_(static_cast<std::size_t>(sets) * ways, MAX_RRPV),
      pcs_(static_cast<std::size_t>(sets) * ways, 0)
{
    TRIAGE_ASSERT(util::is_pow2(sets_));
    // floor_pow2, not a decrement loop: with sampled_sets == 0 the old
    // `while (!is_pow2(n)) --n;` underflowed to 0xFFFFFFFF and spun
    // ~2^31 iterations before producing a bogus shift.
    TRIAGE_ASSERT(sampled_sets > 0,
                  "MetaHawkeye needs at least one sampled set");
    auto n = static_cast<std::uint32_t>(
        util::floor_pow2(std::min(sampled_sets, sets_)));
    sample_shift_ = util::log2_exact(sets_ / n);
    sample_mask_ = (1u << sample_shift_) - 1;
    samplers_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        samplers_.emplace_back(ways_, history_factor_);
}

bool
MetaHawkeye::is_sampled(std::uint32_t set) const
{
    return (set & sample_mask_) == 0;
}

std::uint8_t&
MetaHawkeye::rrpv(std::uint32_t set, std::uint32_t way)
{
    return rrpv_[static_cast<std::size_t>(set) * ways_ + way];
}

sim::Pc&
MetaHawkeye::entry_pc(std::uint32_t set, std::uint32_t way)
{
    return pcs_[static_cast<std::size_t>(set) * ways_ + way];
}

void
MetaHawkeye::sample(std::uint32_t set, std::uint64_t key, sim::Pc pc)
{
    SampledSet& s = samplers_[set >> sample_shift_];
    bool opt_hit = s.optgen.access(key);
    if (stats_ != nullptr)
        ++(opt_hit ? stats_->optgen_hits : stats_->optgen_misses);
    sim::Pc* it = s.last_pc.find(key);
    if (it != nullptr) {
        if (opt_hit)
            predictor_.train_positive(*it);
        else
            predictor_.train_negative(*it);
        *it = pc;
    } else {
        s.last_pc.ref(key) = pc;
    }
    if (s.last_pc.size() > 16ULL * ways_ * history_factor_)
        s.last_pc.clear();
}

void
MetaHawkeye::on_hit(std::uint32_t set, std::uint32_t way,
                    std::uint64_t key, sim::Pc pc, bool visible)
{
    // Per-entry state always reflects the latest access...
    rrpv(set, way) = predictor_.predict(pc) ? 0 : MAX_RRPV;
    entry_pc(set, way) = pc;
    if (stats_ != nullptr)
        ++(visible ? stats_->visible_events : stats_->hidden_events);
    // ...but OPTgen and the predictor only see useful reuse.
    if (visible && is_sampled(set))
        sample(set, key, pc);
}

void
MetaHawkeye::on_miss(std::uint32_t set, std::uint64_t key, sim::Pc pc,
                     bool visible)
{
    if (stats_ != nullptr)
        ++(visible ? stats_->visible_events : stats_->hidden_events);
    if (visible && is_sampled(set))
        sample(set, key, pc);
}

void
MetaHawkeye::on_insert(std::uint32_t set, std::uint32_t way,
                       std::uint64_t key, sim::Pc pc)
{
    (void)key;
    entry_pc(set, way) = pc;
    bool friendly = predictor_.predict(pc);
    if (stats_ != nullptr)
        ++(friendly ? stats_->friendly_inserts : stats_->averse_inserts);
    if (friendly) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (w == way)
                continue;
            auto& r = rrpv(set, w);
            if (r < MAX_RRPV - 1)
                ++r;
        }
        rrpv(set, way) = 0;
    } else {
        rrpv(set, way) = MAX_RRPV;
    }
}

void
MetaHawkeye::on_invalidate(std::uint32_t set, std::uint32_t way)
{
    rrpv(set, way) = MAX_RRPV;
    entry_pc(set, way) = 0;
}

std::uint32_t
MetaHawkeye::victim(std::uint32_t set)
{
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (rrpv(set, w) == MAX_RRPV)
            return w;
    }
    std::uint32_t best = 0;
    std::uint8_t best_rrpv = rrpv(set, 0);
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (rrpv(set, w) > best_rrpv) {
            best_rrpv = rrpv(set, w);
            best = w;
        }
    }
    if (stats_ != nullptr)
        ++stats_->victim_demotions;
    predictor_.train_negative(entry_pc(set, best));
    return best;
}

std::unique_ptr<MetaRepl>
make_meta_repl(MetaReplKind kind, std::uint32_t sets, std::uint32_t ways)
{
    switch (kind) {
      case MetaReplKind::Lru:
        return std::make_unique<MetaLru>(sets, ways);
      case MetaReplKind::Hawkeye:
        return std::make_unique<MetaHawkeye>(sets, ways);
    }
    util::panic("unknown MetaReplKind");
}

} // namespace triage::core
