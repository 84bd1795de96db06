#include "sim/multicore.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "sim/obs_wiring.hpp"
#include "sim/system.hpp"

#include "util/log.hpp"

namespace triage::sim {

MultiCoreSystem::MultiCoreSystem(const MachineConfig& cfg, unsigned n_cores)
    : cfg_(cfg), n_cores_(n_cores), mem_(cfg, n_cores),
      workloads_(n_cores)
{
    cores_.reserve(n_cores);
    for (unsigned c = 0; c < n_cores; ++c)
        cores_.push_back(std::make_unique<CoreModel>(cfg, mem_, c));
}

void
MultiCoreSystem::set_prefetcher(unsigned core,
                                std::unique_ptr<prefetch::Prefetcher> pf)
{
    mem_.set_prefetcher(core, std::move(pf));
}

void
MultiCoreSystem::bind(unsigned core, const Workload& wl)
{
    workloads_[core] = wl.clone();
    cores_[core]->bind(workloads_[core].get());
}

void
MultiCoreSystem::advance(unsigned core, Cycle target)
{
    while (!cores_[core]->run_until(target)) {
        // Benchmark finished a pass: restart it so slower co-runners
        // always observe contention (Section 4.1).
        workloads_[core]->reset();
    }
}

void
MultiCoreSystem::run_warmup(std::uint64_t warmup_records, Cycle quantum)
{
    for (unsigned c = 0; c < n_cores_; ++c)
        TRIAGE_ASSERT(workloads_[c] != nullptr, "core without workload");
    TRIAGE_ASSERT(!warmed_, "run_warmup on an already-warm system");

    // A 1-program "mix" has no co-runners, so it must be
    // indistinguishable from the single-core system. The quantum-based
    // warmup below overshoots the warm point (it stops at a cycle
    // boundary, not a record boundary), so warm record-exactly as
    // SingleCoreSystem does and measure with the same measure_one_core
    // (tools/diff_fidelity pins this).
    obs::prof::ProfScope prof("warmup");
    warmed_ = true;
    if (n_cores_ == 1) {
        cores_[0]->run_records(warmup_records);
        return;
    }

    // Warm until every core has executed warmup_records.
    Cycle global = quantum;
    auto all_warm = [&] {
        for (unsigned c = 0; c < n_cores_; ++c) {
            if (cores_[c]->stats().mem_records < warmup_records)
                return false;
        }
        return true;
    };
    while (!all_warm()) {
        for (unsigned c = 0; c < n_cores_; ++c)
            advance(c, global);
        global += quantum;
    }
    warm_global_ = global;
}

void
MultiCoreSystem::checkpoint_warm(Snapshot& s)
{
    for (unsigned c = 0; c < n_cores_; ++c)
        TRIAGE_ASSERT(workloads_[c] != nullptr, "core without workload");
    if (s.saving())
        TRIAGE_ASSERT(warmed_, "checkpoint_warm before run_warmup");

    s.section("multicore.warm");
    std::uint32_t n = n_cores_;
    s.io(n);
    TRIAGE_ASSERT(n == n_cores_, "core-count mismatch on restore");
    s.io(warm_global_);
    mem_.checkpoint(s);
    for (auto& c : cores_)
        c->checkpoint(s);
    if (s.loading())
        warmed_ = true;
}

RunResult
MultiCoreSystem::run_measure(std::uint64_t measure_records, Cycle quantum)
{
    TRIAGE_ASSERT(warmed_,
                  "run_measure needs a warm system (run_warmup or a "
                  "restoring checkpoint_warm)");
    warmed_ = false;
    obs::prof::ProfScope prof("measure");

    if (n_cores_ == 1)
        return measure_one_core(mem_, *cores_[0], measure_records, obs_);

    // Global measurement start.
    Cycle global = warm_global_;
    mem_.clear_stats(global);
    std::vector<CoreStats> base(n_cores_);
    std::vector<Cycle> start_cycle(n_cores_);
    std::vector<Cycle> end_cycle(n_cores_, 0);
    std::vector<CoreStats> final_stats(n_cores_);
    std::vector<bool> done(n_cores_, false);
    for (unsigned c = 0; c < n_cores_; ++c) {
        base[c] = cores_[c]->stats();
        start_cycle[c] = cores_[c]->now();
    }

    if (obs_ != nullptr) {
        std::vector<CoreModel*> core_ptrs;
        for (auto& c : cores_)
            core_ptrs.push_back(c.get());
        attach_observability(*obs_, mem_, core_ptrs);
    }
    const bool sampling = obs_ != nullptr && obs_->sampler.enabled();
    obs::RunVerifier* verifier =
        obs_ != nullptr ? obs_->verifier : nullptr;
    std::uint64_t next_epoch = 0;
    std::uint64_t next_verify =
        verifier != nullptr ? obs::RunVerifier::DEFAULT_EPOCH_RECORDS : 0;
    if (sampling) {
        obs_->sampler.begin(0);
        next_epoch = obs_->sampler.epoch_len();
    }
    // Epoch progress: the slowest core's measured records, so each
    // closed epoch covers at least [begin, end) records on every core.
    auto progress = [&] {
        std::uint64_t p = measure_records;
        for (unsigned c = 0; c < n_cores_; ++c) {
            std::uint64_t r =
                cores_[c]->stats().mem_records - base[c].mem_records;
            p = std::min(p, r);
        }
        return p;
    };

    // Run until every core finishes its measurement window. Each
    // iteration advances every core, in core order, through one bounded
    // quantum; at its end the sampler and verifier observe a consistent
    // system.
    unsigned remaining = n_cores_;
    while (remaining > 0) {
        for (unsigned c = 0; c < n_cores_; ++c)
            advance(c, global);
        global += quantum;
        for (unsigned c = 0; c < n_cores_; ++c) {
            if (done[c])
                continue;
            if (cores_[c]->stats().mem_records - base[c].mem_records >=
                measure_records) {
                done[c] = true;
                end_cycle[c] = cores_[c]->drain();
                final_stats[c] = cores_[c]->stats();
                --remaining;
            }
        }
        if (sampling || verifier != nullptr) {
            std::uint64_t p = progress();
            while (sampling && next_epoch <= p) {
                obs_->sampler.sample(next_epoch);
                next_epoch += obs_->sampler.epoch_len();
            }
            while (verifier != nullptr && next_verify <= p) {
                verifier->on_epoch();
                next_verify += obs::RunVerifier::DEFAULT_EPOCH_RECORDS;
            }
        }
    }
    if (sampling)
        obs_->sampler.finalize(measure_records);
    if (verifier != nullptr)
        verifier->on_run_end();

    RunResult res;
    res.per_core.resize(n_cores_);
    Cycle max_end = 0;
    Cycle min_start = start_cycle[0];
    for (unsigned c = 0; c < n_cores_; ++c) {
        res.per_core[c] =
            core_run_stats(mem_, c, base[c], final_stats[c],
                           start_cycle[c], end_cycle[c]);
        max_end = std::max(max_end, end_cycle[c]);
        min_start = std::min(min_start, start_cycle[c]);
    }
    res.llc = mem_.llc().stats();
    res.traffic = mem_.dram().traffic();
    res.span = max_end - min_start;

    // The registry's bound stats and formulas point into this system,
    // and none of them change once the run is over — snapshot them now
    // so harnesses (e.g. triagesim --mix, whose system is local to
    // stats::run_mix) can dump the registry after the system dies.
    if (obs_ != nullptr)
        obs_->freeze();
    return res;
}

RunResult
MultiCoreSystem::run(std::uint64_t warmup_records,
                     std::uint64_t measure_records, Cycle quantum)
{
    run_warmup(warmup_records, quantum);
    return run_measure(measure_records, quantum);
}

} // namespace triage::sim
