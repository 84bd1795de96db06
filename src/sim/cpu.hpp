/**
 * @file
 * ROB-window out-of-order core model.
 *
 * The model dispatches trace instructions at up to `fetch_width` per
 * cycle into a `rob_entries`-deep window, issues memory requests at
 * dispatch (or when an annotated load dependency resolves), and retires
 * in order at up to `retire_width` per cycle. Memory-level parallelism
 * and pointer-chase serialization both fall out of this structure,
 * which is the ChampSim-style approximation the paper's multi-core
 * results rely on.
 */
#ifndef TRIAGE_SIM_CPU_HPP
#define TRIAGE_SIM_CPU_HPP

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/snapshot.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace triage::cache {
class MemorySystem;
} // namespace triage::cache

namespace triage::sim {

/** Per-core execution counters. */
struct CoreStats {
    std::uint64_t instructions = 0; ///< memory + non-memory
    std::uint64_t mem_records = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    double
    ipc(Cycle cycles) const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }
};

/**
 * One core executing a Workload against a MemorySystem.
 *
 * Not tied to wall-clock stepping: run_until() advances the core's own
 * dispatch clock past a target, which lets a multi-core driver
 * interleave cores in bounded quanta without per-cycle ticking.
 *
 * Cache-line aligned: the core writes its state on every record, so a
 * heap-allocated core must not share a line with an object another
 * thread writes, such as workload state a ReadAheadWorkload producer
 * updates per record (docs/performance.md §15).
 */
class alignas(64) CoreModel
{
  public:
    CoreModel(const MachineConfig& cfg, cache::MemorySystem& mem,
              unsigned core_id);

    /** Attach (or replace) the workload; does not reset timing state. */
    void bind(Workload* wl);

    /** The bound workload (null before bind()). */
    Workload* workload() const { return wl_; }

    /**
     * Execute records until the dispatch clock reaches @p target or the
     * workload's current pass ends.
     * @return false if the pass ended (caller may reset() and rebind).
     */
    bool run_until(Cycle target);

    /** Execute exactly @p n records (restarting passes as needed). */
    void run_records(std::uint64_t n);

    /** Current dispatch-clock value. */
    Cycle now() const { return dispatch_cycle_; }

    /**
     * Cycle at which everything dispatched so far has retired; use this
     * as the end-of-run time when computing IPC.
     */
    Cycle drain() const;

    const CoreStats& stats() const { return stats_; }
    void clear_stats() { stats_ = {}; }
    unsigned core_id() const { return core_id_; }

    /**
     * Records successfully pulled from the bound workload since
     * construction (across passes). This is the core's *workload
     * cursor*: workloads are deterministic functions of their reset
     * state, so replaying this many next() calls from reset()
     * reproduces the cursor exactly — which is how checkpoints restore
     * workload position without serializing kernel internals.
     */
    std::uint64_t workload_records() const { return wl_records_; }

    /**
     * Re-derive the bound workload's cursor by replaying @p n records
     * from reset (mirroring run_records' wrap-at-EOF rule), and adopt
     * @p n as this core's cursor count. The workload must be the same
     * deterministic program the snapshot was taken with.
     */
    void restore_workload_position(std::uint64_t n);

    /** Save/restore timing state, ROB contents and counters. The
     *  workload cursor travels as a replay count (see above). */
    void
    checkpoint(Snapshot& s)
    {
        s.section("core");
        s.io_pod_vec(rob_);
        s.io(rob_head_);
        s.io(rob_count_);
        s.io(dispatch_cycle_);
        s.io(dispatched_this_cycle_);
        s.io(retire_cycle_);
        s.io(retired_this_cycle_);
        s.io_pod_vec(mem_completions_);
        s.io(mem_seq_);
        s.io_pod(stats_);
        std::uint64_t wl_n = wl_records_;
        s.io(wl_n);
        if (s.loading())
            restore_workload_position(wl_n);
    }

  private:
    void step(const TraceRecord& rec);
    void dispatch_one(Cycle completion);
    Cycle retire_head();

    MachineConfig cfg_;
    cache::MemorySystem& mem_;
    unsigned core_id_;
    Workload* wl_ = nullptr;

    // ROB: ring buffer of completion times in program order.
    std::vector<Cycle> rob_;
    std::uint32_t rob_head_ = 0;
    std::uint32_t rob_count_ = 0;

    Cycle dispatch_cycle_ = 0;
    std::uint32_t dispatched_this_cycle_ = 0;
    Cycle retire_cycle_ = 0;
    std::uint32_t retired_this_cycle_ = 0;

    // Completion times of recent memory records, for dep_distance.
    static constexpr std::uint32_t DEP_RING = 1024;
    std::vector<Cycle> mem_completions_;
    std::uint64_t mem_seq_ = 0;

    /** Successful wl_->next() calls since construction (see
     *  workload_records()). */
    std::uint64_t wl_records_ = 0;

    CoreStats stats_;
};

} // namespace triage::sim

#endif // TRIAGE_SIM_CPU_HPP
