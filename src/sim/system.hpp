/**
 * @file
 * SingleCoreSystem: the name bench/ledger's set-up timer still builds.
 * Every other caller runs a single-core job as a 1-core
 * MultiCoreSystem; the ledger's next benchmark change does the same and
 * deletes this header.
 */
#ifndef TRIAGE_SIM_SYSTEM_HPP
#define TRIAGE_SIM_SYSTEM_HPP

#include "sim/multicore.hpp"

namespace triage::sim {

/** A 1-core MultiCoreSystem that borrows its workload. */
class SingleCoreSystem : public MultiCoreSystem
{
  public:
    explicit SingleCoreSystem(const MachineConfig& cfg)
        : MultiCoreSystem(cfg, 1)
    {}

    void
    set_prefetcher(std::unique_ptr<prefetch::Prefetcher> pf)
    {
        MultiCoreSystem::set_prefetcher(0, std::move(pf));
    }

    /** Bind @p wl to core 0 without cloning or owning it. */
    void bind(Workload& wl) { core(0).bind(&wl); }
};

} // namespace triage::sim

#endif // TRIAGE_SIM_SYSTEM_HPP
