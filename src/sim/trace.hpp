/**
 * @file
 * Trace records and the Workload streaming interface.
 *
 * A trace is a deterministic stream of memory references annotated with
 * the issuing PC, enough surrounding compute work to pace the core
 * model, and an optional *load dependency* so that pointer chases are
 * latency-bound in the timing model (a trace-driven stand-in for the
 * register dependences real simulators extract).
 */
#ifndef TRIAGE_SIM_TRACE_HPP
#define TRIAGE_SIM_TRACE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace triage::sim {

/** One memory reference in a trace. */
struct TraceRecord {
    Pc pc = 0;
    Addr addr = 0;
    /** Store (true) or load (false). */
    bool is_write = false;
    /** Non-memory instructions dispatched before this reference. */
    std::uint8_t nonmem_before = 0;
    /**
     * Dependency distance: this load's address depends on the result of
     * the memory reference @c dep_distance records earlier (0 = none).
     * Drives serialization of pointer chases in the core model.
     */
    std::uint16_t dep_distance = 0;
};

/**
 * A deterministic, restartable stream of trace records.
 *
 * Workloads are state machines, not stored vectors, so multi-million
 * reference runs need no trace memory. @c reset() rewinds to the
 * beginning (used to restart early-finishing benchmarks in
 * multi-programmed mixes, Section 4.1).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Rewind to the first record. The records after reset() must not
     * depend on how many were read before it: ReadAheadWorkload drops
     * the records it read ahead and relies on this.
     *
     * A reset() with no next() or skip() since construction or the
     * last reset() costs nothing: set-up code rewinds a fresh
     * workload, so an override returns at once rather than rebuild or
     * reopen what it has.
     */
    virtual void reset() = 0;

    /**
     * Produce the next record.
     * @return false at end-of-trace (call reset() to rerun).
     */
    virtual bool next(TraceRecord& out) = 0;

    /**
     * Advance the cursor by up to @p n records, discarding them.
     * @return records actually skipped — less than @p n only at
     * end-of-trace (the caller may reset() and continue).
     *
     * Semantically identical to @p n next() calls with the output
     * ignored; overrides exist so cursor restoration after a
     * checkpoint restore (CoreModel::restore_workload_position) can
     * seek instead of re-decoding a long prefix. An override MUST
     * leave the stream in exactly the state the next() loop would
     * have — the replay-equality contract checkpoints depend on.
     */
    virtual std::uint64_t
    skip(std::uint64_t n)
    {
        TraceRecord r;
        std::uint64_t done = 0;
        while (done < n && next(r))
            ++done;
        return done;
    }

    /** Benchmark name (matches the paper's x-axis labels). */
    virtual const std::string& name() const = 0;

    /**
     * Fresh, rewound copy (for running the same benchmark on 2 cores).
     * A generated workload's clone copies the state it has built (a
     * chase network) rather than build it again, then rewinds the
     * copy, so a clone taken mid-pass still starts at the first
     * record. A trace's clone opens its own stream.
     */
    virtual std::unique_ptr<Workload> clone() const = 0;
};

/** Workload backed by an in-memory vector (tests, tiny examples). */
class VectorWorkload final : public Workload
{
  public:
    VectorWorkload(std::string name, std::vector<TraceRecord> records)
        : name_(std::move(name)), records_(std::move(records))
    {}

    void reset() override { pos_ = 0; }

    bool
    next(TraceRecord& out) override
    {
        if (pos_ >= records_.size())
            return false;
        out = records_[pos_++];
        return true;
    }

    std::uint64_t
    skip(std::uint64_t n) override
    {
        const std::uint64_t avail = records_.size() - pos_;
        const std::uint64_t take = n < avail ? n : avail;
        pos_ += static_cast<std::size_t>(take);
        return take;
    }

    const std::string& name() const override { return name_; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<VectorWorkload>(name_, records_);
    }

  private:
    std::string name_;
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
};

} // namespace triage::sim

#endif // TRIAGE_SIM_TRACE_HPP
