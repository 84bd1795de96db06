/**
 * @file
 * Single-core simulation harness: wire a workload, a prefetcher and the
 * memory hierarchy together, warm up, measure, and report RunStats.
 *
 * A run is one warmup window followed by one measurement window
 * (measure_one_core). The warm point between them is the only place a
 * run checkpoints: checkpoint_warm() saves it, or restores it into a
 * fresh system so exec::Lab can fork measurements from one warmup.
 */
#ifndef TRIAGE_SIM_SYSTEM_HPP
#define TRIAGE_SIM_SYSTEM_HPP

#include <memory>

#include "cache/hierarchy.hpp"
#include "obs/observer.hpp"
#include "sim/cpu.hpp"
#include "sim/run_stats.hpp"
#include "sim/snapshot.hpp"
#include "sim/trace.hpp"

namespace triage::sim {

/**
 * The single-core measurement window: clear stats, capture baselines,
 * attach @p obs (may be null), run @p measure_records references on
 * @p core (core 0 of @p mem) from its current (warm) state, drain, and
 * assemble the RunResult.
 *
 * The window runs in epoch-sized run_records() chunks (the sampler's
 * epoch length when sampling, otherwise the verifier's default), and
 * the sampler and verifier observe each chunk's end. Chunking is
 * behavior-identical to one big run_records() call, so the epoch
 * length only decides where those boundaries fall, never the result
 * (tools/diff_fidelity pins it). Shared by SingleCoreSystem and by
 * MultiCoreSystem when it runs exactly one core, which is what makes a
 * 1-program mix bit-identical to the single-core system.
 */
RunResult measure_one_core(cache::MemorySystem& mem, CoreModel& core,
                           std::uint64_t measure_records,
                           obs::Observability* obs);

/**
 * One core's RunStats over a measurement window: the core's counters
 * from @p before to @p after, cycles from @p start to @p end, and its
 * private caches, prefetchers and metadata accounting as they stand.
 */
RunStats core_run_stats(cache::MemorySystem& mem, unsigned core,
                        const CoreStats& before, const CoreStats& after,
                        Cycle start, Cycle end);

/** Convenience owner of one core + memory system. */
class SingleCoreSystem
{
  public:
    explicit SingleCoreSystem(const MachineConfig& cfg);

    /** Install the L2 prefetcher under test (null = no L2 prefetching). */
    void set_prefetcher(std::unique_ptr<prefetch::Prefetcher> pf);

    /**
     * Warm up for @p warmup_records memory references, then measure the
     * next @p measure_records (restarting the workload as needed).
     */
    RunResult run(Workload& wl, std::uint64_t warmup_records,
                  std::uint64_t measure_records);

    // --- Forkable protocol (the phases run() composes) ----------------

    /** Attach the workload without running anything. */
    void bind(Workload& wl) { core_.bind(&wl); }

    /** Execute the warmup window (requires bind()). */
    void run_warmup(std::uint64_t warmup_records);

    /**
     * Save the warm state, or restore it into a freshly constructed,
     * identically configured system (requires bind(); the workload is
     * restored by deterministic replay, see CoreModel::checkpoint).
     */
    void checkpoint_warm(Snapshot& s);

    /** Measure from the warm point (after run_warmup or a restoring
     *  checkpoint_warm) and return the result. */
    RunResult run_measure(std::uint64_t measure_records);

    cache::MemorySystem& memory() { return mem_; }
    CoreModel& core() { return core_; }

    /**
     * Attach an observability bundle (registry + epoch sampler + event
     * trace). Wiring happens at measurement start inside run(); the
     * sampler closes an epoch every sampler.epoch_len() measured
     * records. Null detaches.
     */
    void set_observability(obs::Observability* o) { obs_ = o; }

  private:
    MachineConfig cfg_;
    cache::MemorySystem mem_;
    CoreModel core_;
    obs::Observability* obs_ = nullptr;
    /** run_warmup/checkpoint_warm completed; consumed by run_measure. */
    bool warm_ = false;
};

} // namespace triage::sim

#endif // TRIAGE_SIM_SYSTEM_HPP
