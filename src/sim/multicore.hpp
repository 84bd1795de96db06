/**
 * @file
 * Multi-programmed multi-core harness (paper Section 4.1): N cores with
 * private L1/L2, shared LLC and DRAM. Cores advance in bounded cycle
 * quanta; early-finishing benchmarks restart so every benchmark always
 * observes contention; per-core measurement windows are counted in
 * memory references from the global warm point.
 *
 * The run is split into resumable phases: run_warmup() reaches the warm
 * point, checkpoint_warm() serializes/restores it (exec::Lab forks
 * sweeps from shared warm snapshots), and run_measure() executes the
 * measurement window. Both phases interleave the cores serially,
 * quantum by quantum, on the calling thread (docs/parallel-runs.md).
 */
#ifndef TRIAGE_SIM_MULTICORE_HPP
#define TRIAGE_SIM_MULTICORE_HPP

#include <memory>
#include <vector>

#include "cache/hierarchy.hpp"
#include "obs/observer.hpp"
#include "sim/cpu.hpp"
#include "sim/run_stats.hpp"
#include "sim/snapshot.hpp"
#include "sim/trace.hpp"

namespace triage::sim {

/** N-core simulation harness. */
class MultiCoreSystem
{
  public:
    MultiCoreSystem(const MachineConfig& cfg, unsigned n_cores);

    /** Install the L2 prefetcher for @p core (null = none). */
    void set_prefetcher(unsigned core,
                        std::unique_ptr<prefetch::Prefetcher> pf);

    /** Assign @p core its benchmark (the system clones and owns it). */
    void bind(unsigned core, const Workload& wl);

    /**
     * Warm every core for @p warmup_records references, clear stats,
     * then measure until every core has executed @p measure_records
     * more references. @p quantum bounds cross-core time skew.
     * Equivalent to run_warmup() followed by run_measure().
     */
    RunResult run(std::uint64_t warmup_records,
                  std::uint64_t measure_records,
                  Cycle quantum = DEFAULT_QUANTUM);

    /**
     * Phase 1: advance every core past its warmup window. @p quantum
     * must match the later run_measure()'s.
     */
    void run_warmup(std::uint64_t warmup_records,
                    Cycle quantum = DEFAULT_QUANTUM);

    /**
     * Serialize the warm state (after run_warmup), or restore it into a
     * freshly constructed, identically configured system with the same
     * workloads bound. A restoring call leaves the system ready for
     * run_measure(), bit-identical to having warmed up in-process.
     */
    void checkpoint_warm(Snapshot& s);

    /**
     * Phase 2: the measurement window, from the warm point, with the
     * cores interleaved serially in core order within each quantum.
     */
    RunResult run_measure(std::uint64_t measure_records,
                          Cycle quantum = DEFAULT_QUANTUM);

    cache::MemorySystem& memory() { return mem_; }
    unsigned num_cores() const { return n_cores_; }

    /**
     * Attach an observability bundle. Epoch progress is the minimum
     * measured-record count across cores, so every core has executed
     * at least [begin, end) records when an epoch closes. Null
     * detaches.
     */
    void set_observability(obs::Observability* o) { obs_ = o; }

  private:
    /** Advance @p core to @p target, restarting its workload at EOF. */
    void advance(unsigned core, Cycle target);

    MachineConfig cfg_;
    unsigned n_cores_;
    cache::MemorySystem mem_;
    std::vector<std::unique_ptr<Workload>> workloads_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    obs::Observability* obs_ = nullptr;

    /** Global cycle target at the warm point (n_cores_ > 1; 0 for one
     *  core, which warms record-exactly like SingleCoreSystem). */
    Cycle warm_global_ = 0;
    /** run_warmup/checkpoint_warm completed; consumed by run_measure. */
    bool warmed_ = false;
};

} // namespace triage::sim

#endif // TRIAGE_SIM_MULTICORE_HPP
