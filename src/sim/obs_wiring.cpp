#include "sim/obs_wiring.hpp"

#include <string>

#include "cache/hierarchy.hpp"
#include "sim/cpu.hpp"

namespace triage::sim {

namespace {

/** Per-core performance formulas, baselined at registration time. */
void
register_core_stats(obs::Registry& reg, const CoreModel& core,
                    const std::string& base)
{
    const CoreModel* c = &core;
    const CoreStats at_start = core.stats();
    const Cycle start = core.now();
    obs::Scope s(reg, base);
    s.add_formula("instructions", [c, at_start] {
        return static_cast<double>(c->stats().instructions -
                                   at_start.instructions);
    });
    s.add_formula("mem_records", [c, at_start] {
        return static_cast<double>(c->stats().mem_records -
                                   at_start.mem_records);
    });
    s.add_formula("cycles", [c, start] {
        return static_cast<double>(c->now() - start);
    });
    s.add_formula("ipc", [c, at_start, start] {
        const Cycle cycles = c->now() - start;
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(c->stats().instructions -
                                   at_start.instructions) /
               static_cast<double>(cycles);
    });
}

void
register_core_probes(obs::EpochSampler& sampler, const CoreModel& core,
                     cache::MemorySystem& mem, unsigned idx,
                     const std::string& base)
{
    const CoreModel* c = &core;
    sampler.add_rate(
        base + ".ipc",
        [c] { return static_cast<double>(c->stats().instructions); },
        [c] { return static_cast<double>(c->now()); });

    // Coverage = useful / (useful + remaining demand misses), both as
    // per-epoch deltas (matches RunStats::coverage over the epoch).
    cache::MemorySystem* m = &mem;
    prefetch::Prefetcher* pf = mem.prefetcher(idx);
    if (pf != nullptr) {
        sampler.add_rate(
            base + ".coverage",
            [pf] { return static_cast<double>(pf->stats().useful); },
            [pf, m, idx] {
                return static_cast<double>(
                    pf->stats().useful +
                    m->l2(idx).stats().demand_misses);
            });
    }

    // Instantaneous LLC way allocation attributable to this core.
    const std::uint64_t way_bytes =
        mem.config().llc_way_bytes(mem.num_cores());
    sampler.add_level(base + ".meta_ways", [m, idx, way_bytes] {
        if (way_bytes == 0)
            return 0.0;
        return static_cast<double>(m->metadata_bytes(idx)) /
               static_cast<double>(way_bytes);
    });
}

/**
 * Per-core lifecycle class counters and formulas. The tracker's
 * per-core array is sized once by reset(), so the bound pointers stay
 * valid until the next attach.
 */
void
register_lifecycle_stats(obs::Registry& reg,
                         const obs::LifecycleTracker& lc, unsigned idx,
                         const std::string& base)
{
    const obs::LifecycleCounts* c = &lc.core_counts(idx);
    obs::Scope s(reg, base + ".lifecycle");
    s.bind_counter("issued", &c->issued);
    s.bind_counter("accurate", &c->accurate);
    s.bind_counter("late", &c->late);
    s.bind_counter("early_evicted", &c->early_evicted);
    s.bind_counter("useless", &c->useless);
    s.bind_counter("dropped", &c->dropped);
    s.add_formula("covered", [c] {
        return static_cast<double>(c->covered());
    });
    s.add_formula("polluting", [c] {
        return static_cast<double>(c->polluting());
    });
}

void
register_lifecycle_probes(obs::EpochSampler& sampler,
                          const obs::LifecycleTracker& lc, unsigned idx,
                          const std::string& base)
{
    const obs::LifecycleCounts* c = &lc.core_counts(idx);
    sampler.add_delta(base + ".lifecycle.covered", [c] {
        return static_cast<double>(c->covered());
    });
    sampler.add_delta(base + ".lifecycle.polluting", [c] {
        return static_cast<double>(c->polluting());
    });
}

} // namespace

void
attach_observability(obs::Observability& obs, cache::MemorySystem& mem,
                     const std::vector<CoreModel*>& cores)
{
    obs.registry.clear();
    obs.sampler.clear_probes();
    obs.sampler.reset();

    mem.register_stats(obs.registry);
    mem.set_trace(&obs.trace);

    // Arm the lifecycle tracker and partition timeline for this run's
    // core count; attaching resets any previous run's records.
    obs.lifecycle.reset(static_cast<unsigned>(cores.size()));
    obs.partition_timeline.reset(static_cast<unsigned>(cores.size()));
    mem.set_lifecycle(&obs.lifecycle);

    for (unsigned i = 0; i < cores.size(); ++i) {
        const std::string base = "core" + std::to_string(i);
        register_core_stats(obs.registry, *cores[i], base);
        register_core_probes(obs.sampler, *cores[i], mem, i, base);
        register_lifecycle_stats(obs.registry, obs.lifecycle, i, base);
        register_lifecycle_probes(obs.sampler, obs.lifecycle, i, base);
        if (prefetch::Prefetcher* pf = mem.prefetcher(i)) {
            pf->register_probes(obs.sampler, base + ".pf");
            pf->set_partition_timeline(&obs.partition_timeline, i);
        }
    }

    // Shared-LLC metadata partition level probe (total ways).
    cache::MemorySystem* m = &mem;
    obs.sampler.add_level("llc.metadata_ways", [m] {
        return static_cast<double>(m->metadata_ways());
    });

    // Invariant harness last, so its checkers see the fully wired
    // system; the run loop drives on_epoch()/on_run_end() from here on.
    if (obs.verifier != nullptr)
        obs.verifier->attach(mem);
}

} // namespace triage::sim
