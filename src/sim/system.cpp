#include "sim/system.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "sim/obs_wiring.hpp"
#include "util/log.hpp"

namespace triage::sim {

SingleCoreSystem::SingleCoreSystem(const MachineConfig& cfg)
    : cfg_(cfg), mem_(cfg, 1), core_(cfg, mem_, 0)
{
}

void
SingleCoreSystem::set_prefetcher(std::unique_ptr<prefetch::Prefetcher> pf)
{
    mem_.set_prefetcher(0, std::move(pf));
}

RunStats
core_run_stats(cache::MemorySystem& mem, unsigned core,
               const CoreStats& before, const CoreStats& after,
               Cycle start, Cycle end)
{
    RunStats s;
    s.instructions = after.instructions - before.instructions;
    s.mem_records = after.mem_records - before.mem_records;
    s.cycles = end - start;
    s.l1 = mem.l1(core).stats();
    s.l2 = mem.l2(core).stats();
    if (mem.prefetcher(core) != nullptr)
        s.l2pf = mem.prefetcher(core)->snapshot();
    if (mem.l1_stride(core) != nullptr)
        s.l1_stride = mem.l1_stride(core)->snapshot();
    s.energy = mem.metadata_energy(core);
    s.avg_metadata_ways = mem.avg_metadata_ways(core, end);
    return s;
}

RunResult
measure_one_core(cache::MemorySystem& mem, CoreModel& core,
                 std::uint64_t measure_records, obs::Observability* obs)
{
    mem.clear_stats(core.now());
    const CoreStats before = core.stats();
    const Cycle start = core.now();

    if (obs != nullptr)
        attach_observability(*obs, mem, {&core});
    const bool sampling = obs != nullptr && obs->sampler.enabled();
    obs::RunVerifier* verifier = obs != nullptr ? obs->verifier : nullptr;
    if (sampling)
        obs->sampler.begin(0);

    const std::uint64_t epoch_len =
        sampling ? obs->sampler.epoch_len()
                 : obs::RunVerifier::DEFAULT_EPOCH_RECORDS;
    for (std::uint64_t done = 0; done < measure_records;) {
        obs::prof::ProfScope prof("epoch");
        const std::uint64_t chunk =
            std::min(epoch_len, measure_records - done);
        core.run_records(chunk);
        done += chunk;
        if (sampling)
            obs->sampler.sample(done);
        if (verifier != nullptr)
            verifier->on_epoch();
    }

    const Cycle end = core.drain();
    if (verifier != nullptr)
        verifier->on_run_end();

    RunResult res;
    res.per_core.push_back(
        core_run_stats(mem, 0, before, core.stats(), start, end));
    res.llc = mem.llc().stats();
    res.traffic = mem.dram().traffic();
    res.span = end - start;

    // The registry's bound stats and formulas point into this system,
    // and none of them change once the run is over — snapshot them now
    // so harnesses (e.g. stats::run_single callers emitting
    // --stats-json) can dump the registry after the system dies.
    if (obs != nullptr)
        obs->freeze();
    return res;
}

void
SingleCoreSystem::run_warmup(std::uint64_t warmup_records)
{
    TRIAGE_ASSERT(!warm_, "run_warmup on an already-warm system");
    obs::prof::ProfScope prof("warmup");
    core_.run_records(warmup_records);
    warm_ = true;
}

void
SingleCoreSystem::checkpoint_warm(Snapshot& s)
{
    if (s.saving())
        TRIAGE_ASSERT(warm_, "checkpoint_warm before run_warmup");
    mem_.checkpoint(s);
    core_.checkpoint(s);
    if (s.loading())
        warm_ = true;
}

RunResult
SingleCoreSystem::run_measure(std::uint64_t measure_records)
{
    TRIAGE_ASSERT(warm_, "run_measure needs a warm system (run_warmup or "
                         "a restoring checkpoint_warm)");
    warm_ = false;
    obs::prof::ProfScope prof("measure");
    return measure_one_core(mem_, core_, measure_records, obs_);
}

RunResult
SingleCoreSystem::run(Workload& wl, std::uint64_t warmup_records,
                      std::uint64_t measure_records)
{
    core_.bind(&wl);
    run_warmup(warmup_records);
    return run_measure(measure_records);
}

} // namespace triage::sim
