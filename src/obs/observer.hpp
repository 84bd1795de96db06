/**
 * @file
 * The observability bundle a run harness attaches to a system: one
 * stats registry, one epoch sampler and one event trace. Systems that
 * have an Observability attached (re)register their components into
 * the registry at run start, wire the trace pointer through the
 * hierarchy, and drive the sampler from their run loop; with nothing
 * attached every hook is a null-pointer test.
 */
#ifndef TRIAGE_OBS_OBSERVER_HPP
#define TRIAGE_OBS_OBSERVER_HPP

#include <cstdint>

#include "obs/event_trace.hpp"
#include "obs/lifecycle.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"

namespace triage::cache {
class MemorySystem;
} // namespace triage::cache

namespace triage::obs {

/**
 * Interface for a runtime invariant checker driven by the run loop.
 *
 * The obs layer cannot depend on the hierarchy, so only this abstract
 * hook lives here; the concrete suite (verify::InvariantSuite) sits in
 * src/verify and registers per-component checkers when the system
 * calls attach() from attach_observability(). The systems then call
 * on_epoch() at epoch boundaries (sampler epochs when sampling,
 * DEFAULT_EPOCH_RECORDS-sized chunks otherwise) and on_run_end() once
 * after drain. A null pointer in Observability::verifier keeps every
 * hook a single pointer test, so release throughput is untouched with
 * verification compiled in but disabled (docs/verification.md).
 */
class RunVerifier
{
  public:
    /** Chunking used when a verifier runs without the sampler. */
    static constexpr std::uint64_t DEFAULT_EPOCH_RECORDS = 65536;

    virtual ~RunVerifier() = default;

    /** (Re)register checkers against @p mem; called at measure start. */
    virtual void attach(cache::MemorySystem& mem) = 0;
    /** Run every checker once (epoch boundary). */
    virtual void on_epoch() = 0;
    /** Final sweep after the measurement window drains. */
    virtual void on_run_end() = 0;

    /** Checker invocations so far (one per checker per sweep). */
    virtual std::uint64_t checks_run() const = 0;
    /** Total violations reported so far. */
    virtual std::uint64_t violations() const = 0;
    /** Serialize {"checks":N,"violations":N,"failures":[...]}. */
    virtual void write_json(json::Writer& w) const = 0;
};

/** Registry + sampler + trace + lifecycle/timeline, one unit. */
struct Observability {
    Registry registry;
    EpochSampler sampler;
    EventTrace trace;
    LifecycleTracker lifecycle;
    PartitionTimeline partition_timeline;
    /** Optional invariant checker (owned by the caller); see above. */
    RunVerifier* verifier = nullptr;

    /**
     * Detach the bundle from the system it was wired into: settle the
     * lifecycle tracker (open prefetch records become "useless"), then
     * snapshot every bound/formula stat and drop the sampler's live
     * probes, so dumping after the system is destroyed reads stored
     * values rather than dangling pointers. Lifecycle finalization
     * must precede the registry freeze — the frozen formulas read the
     * settled class counts. The systems call this at the end of
     * run(); recorded epochs and trace events are unaffected.
     */
    void
    freeze()
    {
        lifecycle.finalize();
        registry.freeze();
        sampler.freeze();
    }
};

} // namespace triage::obs

#endif // TRIAGE_OBS_OBSERVER_HPP
