/**
 * @file
 * Declarative experiment jobs. A Job names everything one simulation
 * run depends on — machine configuration, workload (benchmark analog
 * or multi-core mix), prefetcher, degree, and run scale — and a JobKey
 * is the typed identity the Lab memoizes on.
 *
 * Determinism contract: a job's RunResult is a pure function of its
 * JobKey. Every RNG stream consumed while running a job is seeded from
 * constants recorded in the job itself (the benchmark seed table, the
 * replica-derived jitter), never from global state, scheduling order
 * or wall-clock time, so parallel and serial execution produce
 * bit-identical results. See docs/parallel-runs.md.
 */
#ifndef TRIAGE_EXEC_JOB_HPP
#define TRIAGE_EXEC_JOB_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/observer.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/config.hpp"
#include "sim/run_stats.hpp"
#include "sim/trace.hpp"
#include "stats/experiment.hpp"
#include "workloads/mixes.hpp"

namespace triage::exec {

/**
 * One unit of schedulable work: a single simulation run.
 *
 * The workload is either @ref benchmark (single-core) or @ref mix
 * (multi-core, one benchmark name per core; takes precedence when
 * non-empty). The prefetcher is named by @ref pf_spec (the
 * stats::make_prefetcher grammar); configurations the grammar cannot
 * express go through @ref prefetcher_factory plus a unique
 * @ref variant tag that stands in for the spec in the JobKey.
 */
struct Job {
    sim::MachineConfig config{};

    /** Single-core benchmark analog name (ignored when mix non-empty). */
    std::string benchmark;
    /** Multi-core mix: benchmark name per core. Empty = single-core. */
    workloads::Mix mix{};

    /** Prefetcher spec string ("none" = no L2 prefetcher). */
    std::string pf_spec = "none";
    std::uint32_t degree = 1;

    stats::RunScale scale{};

    /**
     * Replica index for statistically independent reruns: replica 0
     * uses the benchmark table's canonical seed (today's numbers);
     * replica N > 0 perturbs the workload RNG with a stream derived
     * from the JobKey, so each replica is reproducible on its own.
     */
    std::uint32_t replica = 0;

    /**
     * Multi-core quantum in cycles (0 = sim::DEFAULT_QUANTUM). Part of
     * the JobKey — both the warmup and the measurement interleaving
     * depend on it.
     */
    sim::Cycle quantum = 0;

    /**
     * Unique tag naming a custom configuration in the JobKey. Required
     * whenever @ref prefetcher_factory or @ref workload_factory is
     * set; otherwise it must stay empty and pf_spec is the identity.
     */
    std::string variant;

    /**
     * Build a custom prefetcher for @p core instead of
     * stats::make_prefetcher(pf_spec, degree). Must be thread-safe to
     * call (it runs on a Lab worker) and must not capture state shared
     * with other jobs' runs.
     */
    std::function<std::unique_ptr<prefetch::Prefetcher>(unsigned core)>
        prefetcher_factory;

    /**
     * Build a custom single-core workload (e.g. a recorded trace)
     * instead of workloads::make_benchmark(benchmark, ...). Same
     * thread-safety rules as prefetcher_factory.
     */
    std::function<std::unique_ptr<sim::Workload>()> workload_factory;

    /**
     * Optional per-job observability bundle, owned by the caller and
     * alive until the result is collected. The system freezes it at
     * the end of run() — on the worker, before the job completes — so
     * collection never reads probes into a destroyed system. A job
     * with a bundle attached bypasses memoization (it is
     * side-effecting by design).
     */
    obs::Observability* obs = nullptr;
};

/**
 * Typed memoization key: the canonical identity of a Job. Two jobs
 * with equal keys produce bit-identical RunResults, so the Lab runs
 * only one of them. Replaces the "bench|pf|degree" string concat the
 * benches used to hand-roll.
 */
struct JobKey {
    /** Canonical fingerprint of every MachineConfig field. */
    std::string machine;
    /** "bench:<name>", "mix:<a>,<b>,...", or "wl:<variant>". */
    std::string workload;
    /** pf_spec, or the variant tag for factory-built prefetchers. */
    std::string pf;
    std::uint32_t degree = 1;
    std::uint32_t replica = 0;
    std::uint64_t warmup_records = 0;
    std::uint64_t measure_records = 0;
    double workload_scale = 1.0;
    /** Multi-core quantum (0 = default; "|q<N>" only when non-zero,
     *  so pre-existing key strings are unchanged). */
    std::uint64_t quantum = 0;

    bool operator==(const JobKey&) const = default;

    /** One-line canonical form (stable across runs; used for hashing). */
    std::string str() const;

    /** FNV-1a hash of str(). */
    std::uint64_t hash() const;

    /**
     * Per-job RNG seed stream, derived from hash() via splitmix64.
     * Deterministic in the key alone, independent of submission order
     * or worker assignment.
     */
    std::uint64_t derived_seed() const;
};

/** Functor for unordered_map<JobKey, ...>. */
struct JobKeyHash {
    std::size_t
    operator()(const JobKey& k) const
    {
        return static_cast<std::size_t>(k.hash());
    }
};

/** Compute the canonical key of @p job (fatal on malformed jobs). */
JobKey key_of(const Job& job);

/**
 * The warm prefix of @p key: everything the warm state depends on.
 * The measurement length is zeroed out — two jobs differing only in
 * it share one warm checkpoint (the warm point predates the
 * measurement window). Its str() doubles as the checkpoint fingerprint.
 */
JobKey warm_prefix(const JobKey& key);

class CheckpointStore;

/**
 * Run one job to completion on the calling thread. Self-contained: a
 * fresh MultiCoreSystem per call (one core for a single benchmark),
 * which owns every workload it runs; all state local, safe to call
 * from any number of threads concurrently.
 */
sim::RunResult run_job(const Job& job);

/**
 * run_job() forking from @p ckpt when possible: the warm prefix is
 * restored from a cached snapshot (or simulated once and published
 * when a later job can fork it; see CheckpointStore::expect()).
 * Bit-identical to the plain overload. Null @p ckpt degrades to the
 * plain path.
 */
sim::RunResult run_job(const Job& job, CheckpointStore* ckpt);

} // namespace triage::exec

#endif // TRIAGE_EXEC_JOB_HPP
