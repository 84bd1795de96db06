#include "triage/partition.hpp"

#include <algorithm>

#include "obs/event_trace.hpp"
#include "obs/lifecycle.hpp"
#include "triage/metadata_store.hpp"

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::core {

PartitionController::PartitionController(PartitionConfig cfg)
    : cfg_(std::move(cfg)),
      last_rates_(cfg_.sizes.size(), 0.0),
      level_(std::min<std::uint32_t>(
          cfg_.initial_level,
          static_cast<std::uint32_t>(cfg_.sizes.size())))
{
    TRIAGE_ASSERT(!cfg_.sizes.empty());
    TRIAGE_ASSERT(std::is_sorted(cfg_.sizes.begin(), cfg_.sizes.end()));
    for (std::uint64_t bytes : cfg_.sizes) {
        // Sampled capacity: a 1-in-2^k access sample behaves like a
        // 1-in-2^k capacity cache for OPT (same stack distances in the
        // sampled stream), which is what keeps each sandbox ~1 KB.
        std::uint64_t entries = bytes / ENTRY_BYTES;
        auto cap = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(entries >> cfg_.sample_shift, 16));
        sandboxes_.emplace_back(cap, HISTORY_FACTOR);
    }
}

bool
PartitionController::observe(sim::Addr trigger, bool visible)
{
    ++accesses_;
    if (visible &&
        (util::mix64(trigger ^ 0xabcdefULL) &
         ((1ULL << cfg_.sample_shift) - 1)) == 0) {
        ++sampled_;
        for (auto& sb : sandboxes_)
            sb.access(trigger);
    }
    if (accesses_ >= cfg_.epoch_accesses) {
        end_epoch();
        return true;
    }
    return false;
}

void
PartitionController::record_sample(std::uint32_t verdict,
                                   obs::PartitionEvent event)
{
    if (timeline_ == nullptr)
        return;
    obs::PartitionSample s;
    s.core = core_;
    s.epoch = epochs_;
    s.level = level_;
    s.verdict = verdict;
    s.size_bytes = size_bytes();
    s.event = event;
    s.hit_rates = last_rates_;
    timeline_->record(std::move(s));
}

void
PartitionController::end_epoch()
{
    accesses_ = 0;
    for (std::size_t i = 0; i < sandboxes_.size(); ++i)
        last_rates_[i] = sandboxes_[i].hit_rate();
    for (auto& sb : sandboxes_)
        sb.clear_counters();
    decide_epoch();
}

void
PartitionController::force_epoch(const std::vector<double>& rates,
                                 std::uint64_t issued,
                                 std::uint64_t useful)
{
    TRIAGE_ASSERT(rates.size() == cfg_.sizes.size(),
                  "force_epoch needs one rate per candidate size");
    last_rates_ = rates;
    sampled_ = std::max(sampled_, WARMUP_SAMPLES);
    issued_ = issued;
    useful_ = useful;
    decide_epoch();
}

void
PartitionController::decide_epoch()
{
    ++epochs_;
    ++dstats_.epochs;
    if (trace_ != nullptr)
        trace_->emit(obs::EventKind::PartitionEpoch, level_, size_bytes());

    ++epochs_at_level_;
    if (cooldown_ > 0)
        --cooldown_;
    // Per-epoch utility; judged only after the store has been resident
    // long enough to warm (otherwise cold epochs dilute the verdict).
    double issued_fraction =
        static_cast<double>(issued_) /
        static_cast<double>(cfg_.epoch_accesses);
    double accuracy = issued_ == 0
                          ? 1.0
                          : static_cast<double>(useful_) /
                                static_cast<double>(issued_);
    issued_ = 0;
    useful_ = 0;

    // A cold OPTgen reports near-zero hit rates regardless of the
    // workload; hold the initial allocation until history accumulates.
    if (sampled_ < WARMUP_SAMPLES) {
        ++dstats_.warmup_epochs;
        record_sample(level_, obs::PartitionEvent::Warmup);
        return;
    }

    std::uint32_t level_before = level_;
    // Hit rate of the "no store" configuration is zero by definition.
    auto rate_at = [&](std::uint32_t level) {
        return level == 0 ? 0.0 : last_rates_[level - 1];
    };
    std::uint32_t max_level =
        static_cast<std::uint32_t>(cfg_.sizes.size());

    // Grow while the next size up is worth more than the hysteresis...
    std::uint32_t verdict = level_;
    while (verdict < max_level &&
           rate_at(verdict + 1) - rate_at(verdict) > cfg_.hysteresis) {
        ++verdict;
    }
    // ...then shrink while the next size down costs less than it.
    while (verdict > 0 &&
           rate_at(verdict) - rate_at(verdict - 1) < cfg_.hysteresis) {
        --verdict;
    }
    if (trace_ != nullptr) {
        trace_->emit(obs::EventKind::OptgenVerdict, verdict,
                     static_cast<std::uint64_t>(rate_at(verdict) * 1e6));
    }
    // The raw sandbox verdict, before the gate or cooldown clamp it;
    // this is what the timeline reports so suppression is visible.
    std::uint32_t raw_verdict = verdict;
    bool gate_fired = false;
    // Utility gate (paper Section 4.2's "future work": account for
    // cache utility, not just metadata hit rate). A store that has
    // been resident long enough to warm and either (a) prefetches
    // actively but is rarely consumed, or (b) barely prefetches at
    // all, does not pay for its LLC ways. Step one rung down and
    // block regrowth for a cool-down (otherwise the hit-rate rule
    // rebuilds the same useless store immediately).
    if (cfg_.gate_min_accuracy > 0 && level_ > 0 &&
        epochs_at_level_ >= cfg_.gate_min_epochs) {
        bool inaccurate = issued_fraction >= GATE_MIN_ISSUED_FRACTION &&
                          accuracy < cfg_.gate_min_accuracy;
        bool quiet = issued_fraction < GATE_MIN_ISSUED_FRACTION;
        if (inaccurate || quiet) {
            verdict = std::min(verdict, level_ - 1);
            cooldown_ = cfg_.gate_cooldown_epochs;
            gate_fired = true;
            ++dstats_.gate_fires;
        }
    }
    bool cooled = false;
    if (cooldown_ > 0 && verdict > level_) {
        verdict = level_; // growth suppressed while cooling down
        cooled = true;
    }

    if (verdict == level_) {
        pending_count_ = 0;
        if (cooled) {
            ++dstats_.cooldown_suppressed;
            record_sample(raw_verdict, obs::PartitionEvent::Cooldown);
        } else {
            ++dstats_.holds;
            record_sample(raw_verdict, obs::PartitionEvent::Hold);
        }
        return;
    }
    // Apply a change only after confirm_epochs consecutive agreeing
    // verdicts (partition stability, Section 4.6).
    if (pending_count_ > 0 && pending_level_ == verdict) {
        if (++pending_count_ >= cfg_.confirm_epochs) {
            level_ = verdict;
            pending_count_ = 0;
        }
    } else {
        pending_level_ = verdict;
        pending_count_ = 1;
        if (cfg_.confirm_epochs <= 1) {
            level_ = verdict;
            pending_count_ = 0;
        }
    }
    if (level_ != level_before) {
        if (trace_ != nullptr)
            trace_->emit(obs::EventKind::PartitionDecision, level_,
                         level_before);
        TRIAGE_LOG_INFO("partition: level ", level_before, " -> ", level_,
                        " (", size_bytes() >> 10, " KB)");
        // issued_/useful_ are per-epoch counters, already zeroed above
        // where the gate consumed them; only the residency clock resets
        // on a level change.
        epochs_at_level_ = 0;
        ++dstats_.changes;
        record_sample(raw_verdict, obs::PartitionEvent::Changed);
    } else {
        ++dstats_.pending;
        record_sample(raw_verdict, gate_fired
                                       ? obs::PartitionEvent::Gated
                                       : obs::PartitionEvent::Pending);
    }
}

void
PartitionController::self_check(
    const std::function<void(const std::string&)>& report) const
{
    const auto max_level = static_cast<std::uint32_t>(cfg_.sizes.size());
    if (level_ > max_level) {
        report("partition level " + std::to_string(level_) +
               " above ladder top " + std::to_string(max_level));
    }
    if (accesses_ >= cfg_.epoch_accesses) {
        report("partition epoch accumulator " +
               std::to_string(accesses_) + " >= epoch length " +
               std::to_string(cfg_.epoch_accesses));
    }
    // decide_epoch() resets the confirmation counter the moment it
    // reaches confirm_epochs, so a resting value at or above it means
    // a level change was skipped.
    const std::uint32_t confirm =
        std::max<std::uint32_t>(cfg_.confirm_epochs, 1);
    if (pending_count_ >= confirm) {
        report("partition pending_count " +
               std::to_string(pending_count_) +
               " not consumed at confirm_epochs " +
               std::to_string(cfg_.confirm_epochs));
    }
    if (pending_count_ > 0 &&
        (pending_level_ > max_level || pending_level_ == level_)) {
        report("partition pending_level " +
               std::to_string(pending_level_) +
               " invalid while pending at level " +
               std::to_string(level_));
    }
    if (cooldown_ > cfg_.gate_cooldown_epochs) {
        report("partition cooldown " + std::to_string(cooldown_) +
               " above configured window " +
               std::to_string(cfg_.gate_cooldown_epochs));
    }
    if (dstats_.epochs != epochs_) {
        report("partition decision-stat epochs " +
               std::to_string(dstats_.epochs) +
               " != controller epochs " + std::to_string(epochs_));
    }
    const std::uint64_t outcome_sum =
        dstats_.warmup_epochs + dstats_.holds + dstats_.pending +
        dstats_.changes + dstats_.cooldown_suppressed;
    if (outcome_sum != dstats_.epochs) {
        report("partition outcome counters sum to " +
               std::to_string(outcome_sum) + " but epochs is " +
               std::to_string(dstats_.epochs));
    }
    if (last_rates_.size() != cfg_.sizes.size()) {
        report("partition hit-rate vector has " +
               std::to_string(last_rates_.size()) + " entries for " +
               std::to_string(cfg_.sizes.size()) + " candidate sizes");
    }
    for (std::size_t i = 0; i < last_rates_.size(); ++i) {
        if (!(last_rates_[i] >= 0.0 && last_rates_[i] <= 1.0)) {
            report("partition sandbox " + std::to_string(i) +
                   " hit rate " + std::to_string(last_rates_[i]) +
                   " outside [0, 1]");
        }
    }
    for (std::size_t i = 0; i < sandboxes_.size(); ++i) {
        const replacement::OptGen& sb = sandboxes_[i];
        if (sb.hits() > sb.accesses()) {
            report("partition sandbox " + std::to_string(i) + " hits " +
                   std::to_string(sb.hits()) + " exceed accesses " +
                   std::to_string(sb.accesses()));
        }
        if (sb.occupancy_peak() > sb.capacity()) {
            report("partition sandbox " + std::to_string(i) +
                   " OPTgen occupancy peak " +
                   std::to_string(sb.occupancy_peak()) +
                   " above capacity " + std::to_string(sb.capacity()));
        }
    }
}

} // namespace triage::core
