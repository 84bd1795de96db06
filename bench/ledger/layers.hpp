/**
 * @file
 * Layer-boundary decorators for the ledger's traced run.
 *
 * Each decorator wraps one public interface of the simulator, forwards
 * every call unchanged, and adds a call count and host nanoseconds to a
 * LayerCounters block: Workload::next (the workloads / frontend layer),
 * Prefetcher::train (the prefetch + triage layer) and the PrefetchHost
 * callbacks a prefetcher makes into the hierarchy (prefetch issue and
 * metadata requests, the cache layer). The decorated run must simulate
 * exactly what the undecorated one does; the benchmark checks that
 * with verify::diff_results on every traced rep.
 *
 * Counters are plain integers: one LayerCounters block is only ever
 * touched by the thread simulating the system that owns the decorators.
 */
#ifndef TRIAGE_BENCH_LEDGER_LAYERS_HPP
#define TRIAGE_BENCH_LEDGER_LAYERS_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "prefetch/prefetcher.hpp"
#include "sim/trace.hpp"

namespace triage::ledger {

inline std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Calls across one layer boundary and the host time spent inside. */
struct Boundary {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    void
    record(std::uint64_t t0)
    {
        ++calls;
        ns += now_ns() - t0;
    }

    void
    add(const Boundary& o)
    {
        calls += o.calls;
        ns += o.ns;
    }
};

struct LayerCounters {
    Boundary next;           ///< Workload::next
    Boundary train;          ///< Prefetcher::train, inclusive
    std::uint64_t train_self_ns = 0; ///< train minus host callbacks
    Boundary issue_prefetch; ///< PrefetchHost::issue_prefetch
    /** Metadata LLC accesses, off-chip metadata and capacity requests. */
    Boundary meta;
    Boundary teardown; ///< destroying the wrapped prefetcher

    void
    add(const LayerCounters& o)
    {
        next.add(o.next);
        train.add(o.train);
        train_self_ns += o.train_self_ns;
        issue_prefetch.add(o.issue_prefetch);
        meta.add(o.meta);
        teardown.add(o.teardown);
    }
};

/** The PrefetchHost a decorated prefetcher hands its inner one. */
class TimedHost final : public prefetch::PrefetchHost
{
  public:
    explicit TimedHost(LayerCounters& c) : c_(c) {}

    void bind(prefetch::PrefetchHost& inner) { inner_ = &inner; }

    /** Host time spent in callbacks so far. */
    std::uint64_t
    callback_ns() const
    {
        return c_.issue_prefetch.ns + c_.meta.ns;
    }

    prefetch::PfOutcome
    issue_prefetch(unsigned core, sim::Addr block, sim::Cycle when,
                   prefetch::Prefetcher* owner) override
    {
        const std::uint64_t t0 = now_ns();
        const prefetch::PfOutcome out =
            inner_->issue_prefetch(core, block, when, owner);
        c_.issue_prefetch.record(t0);
        return out;
    }

    sim::Cycle llc_latency() const override { return inner_->llc_latency(); }

    void
    count_metadata_llc_access(unsigned core, bool is_write) override
    {
        const std::uint64_t t0 = now_ns();
        inner_->count_metadata_llc_access(core, is_write);
        c_.meta.record(t0);
    }

    sim::Cycle
    offchip_metadata_access(unsigned core, sim::Cycle now,
                            std::uint32_t bytes, bool is_write,
                            bool charge_time) override
    {
        const std::uint64_t t0 = now_ns();
        const sim::Cycle done = inner_->offchip_metadata_access(
            core, now, bytes, is_write, charge_time);
        c_.meta.record(t0);
        return done;
    }

    void
    request_metadata_capacity(unsigned core, std::uint64_t bytes,
                              sim::Cycle now) override
    {
        const std::uint64_t t0 = now_ns();
        inner_->request_metadata_capacity(core, bytes, now);
        c_.meta.record(t0);
    }

  private:
    LayerCounters& c_;
    prefetch::PrefetchHost* inner_ = nullptr;
};

/**
 * Times train() and the inner prefetcher's destruction, and forwards
 * everything else. The inner prefetcher keeps issuing under its own
 * identity, so line ownership, usefulness credit and the checkpoint
 * owner codec (enumerate) all see it, never the decorator.
 */
class TimedPrefetcher final : public prefetch::Prefetcher
{
  public:
    TimedPrefetcher(std::unique_ptr<prefetch::Prefetcher> inner,
                    LayerCounters& c)
        : inner_(std::move(inner)), c_(c), host_(c)
    {}

    /** Large prefetcher tables make teardown a cost of its own; inside
     *  a Lab job it is otherwise invisible from outside run_job. */
    ~TimedPrefetcher() override
    {
        const std::uint64_t t0 = now_ns();
        inner_.reset();
        c_.teardown.record(t0);
    }
    TimedPrefetcher(const TimedPrefetcher&) = delete;
    TimedPrefetcher& operator=(const TimedPrefetcher&) = delete;

    void
    train(const prefetch::TrainEvent& ev,
          prefetch::PrefetchHost& host) override
    {
        host_.bind(host);
        const std::uint64_t cb0 = host_.callback_ns();
        const std::uint64_t t0 = now_ns();
        inner_->train(ev, host_);
        const std::uint64_t dt = now_ns() - t0;
        ++c_.train.calls;
        c_.train.ns += dt;
        c_.train_self_ns += dt - (host_.callback_ns() - cb0);
    }

    void
    pre_train_hint(sim::Addr block) const override
    {
        inner_->pre_train_hint(block);
    }

    void
    on_prefetch_used(sim::Addr block, sim::Cycle now) override
    {
        inner_->on_prefetch_used(block, now);
    }

    void
    on_fill(sim::Addr block, sim::Cycle now, bool was_prefetch) override
    {
        inner_->on_fill(block, now, was_prefetch);
    }

    const std::string& name() const override { return inner_->name(); }

    prefetch::PrefetcherStats
    snapshot() const override
    {
        return inner_->snapshot();
    }

    void clear_stats() override { inner_->clear_stats(); }

    void
    register_stats(obs::Registry& reg,
                   const std::string& prefix) const override
    {
        inner_->register_stats(reg, prefix);
    }

    void
    register_probes(obs::EpochSampler& sampler,
                    const std::string& prefix) const override
    {
        inner_->register_probes(sampler, prefix);
    }

    void set_trace(obs::EventTrace* trace) override
    {
        inner_->set_trace(trace);
    }

    void
    set_partition_timeline(obs::PartitionTimeline* timeline,
                           unsigned core) override
    {
        inner_->set_partition_timeline(timeline, core);
    }

    void checkpoint(sim::Snapshot& s) override { inner_->checkpoint(s); }

    void
    enumerate(std::vector<prefetch::Prefetcher*>& out) override
    {
        inner_->enumerate(out);
    }

  private:
    std::unique_ptr<prefetch::Prefetcher> inner_;
    LayerCounters& c_;
    TimedHost host_;
};

/** Decorate @p pf (null stays null: "none" has no L2 prefetcher). */
inline std::unique_ptr<prefetch::Prefetcher>
timed(std::unique_ptr<prefetch::Prefetcher> pf, LayerCounters& c)
{
    if (pf == nullptr)
        return nullptr;
    return std::make_unique<TimedPrefetcher>(std::move(pf), c);
}

/** Times next(). Clones share the counters. */
class TimedWorkload final : public sim::Workload
{
  public:
    TimedWorkload(std::unique_ptr<sim::Workload> inner, Boundary& b)
        : inner_(std::move(inner)), b_(b)
    {}

    void reset() override { inner_->reset(); }

    bool
    next(sim::TraceRecord& out) override
    {
        const std::uint64_t t0 = now_ns();
        const bool ok = inner_->next(out);
        b_.record(t0);
        return ok;
    }

    std::uint64_t skip(std::uint64_t n) override { return inner_->skip(n); }

    const std::string& name() const override { return inner_->name(); }

    std::unique_ptr<sim::Workload>
    clone() const override
    {
        return std::make_unique<TimedWorkload>(inner_->clone(), b_);
    }

  private:
    std::unique_ptr<sim::Workload> inner_;
    Boundary& b_;
};

} // namespace triage::ledger

#endif // TRIAGE_BENCH_LEDGER_LAYERS_HPP
