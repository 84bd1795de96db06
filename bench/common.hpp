/**
 * @file
 * Shared scaffolding for the figure-reproduction benches: default
 * scales, batch-submitting lab façades over the exec::Lab scheduler,
 * and paper-vs-measured reporting helpers.
 *
 * Every fig* binary prints the series the paper's figure plots, plus
 * the paper's reported aggregate next to our measured aggregate. The
 * absolute numbers come from a different substrate (synthetic traces on
 * a lean timing model), so EXPERIMENTS.md compares *shapes*: who wins,
 * roughly by how much, and where the crossovers are.
 *
 * Parallelism: every bench accepts `--jobs=N` (default: hardware
 * concurrency; `--jobs=1` is the serial path). Benches declare their
 * sweep up front with declare_sweep(), which fans the jobs out across
 * the Lab's workers; the table-building code below then collects the
 * memoized results in deterministic order. Results are bit-identical
 * at any worker count — see docs/parallel-runs.md.
 */
#ifndef TRIAGE_BENCH_COMMON_HPP
#define TRIAGE_BENCH_COMMON_HPP

#include <iostream>
#include <string>
#include <vector>

#include "exec/lab.hpp"
#include "sim/config.hpp"
#include "stats/experiment.hpp"
#include "stats/metrics.hpp"
#include "stats/table.hpp"
#include "workloads/mixes.hpp"
#include "workloads/spec.hpp"

namespace triage::bench {

/** `--jobs=N` (0/absent = hardware concurrency). */
inline unsigned
jobs_from_args(int argc, char** argv)
{
    return exec::Lab::jobs_from_args(argc, argv);
}

/** Default single-core scale: fast enough for `for b in bench/*`. */
inline stats::RunScale
single_core_scale(int argc, char** argv)
{
    stats::RunScale s = stats::RunScale::from_args(argc, argv);
    return s;
}

/** Default multi-core scale (per core). */
inline stats::RunScale
multi_core_scale(int argc, char** argv)
{
    stats::RunScale s;
    // Per-core windows sized so temporal pairs can repeat (entries are
    // born unconfident) and the partition controller's sandboxes warm.
    s.warmup_records = 250000;
    s.measure_records = 450000;
    s.workload_scale = 1.0;
    stats::RunScale cli = stats::RunScale::from_args(argc, argv);
    // CLI overrides only when explicitly provided (presence flags, so
    // passing a value equal to the single-core default still counts).
    if (cli.warmup_set)
        s.warmup_records = cli.warmup_records;
    if (cli.measure_set)
        s.measure_records = cli.measure_records;
    if (cli.scale_set)
        s.workload_scale = cli.workload_scale;
    return s;
}

/**
 * Single-core lab: memoized (bench, pf, degree) runs on a shared
 * machine config and scale, scheduled by an exec::Lab worker pool.
 */
class SingleCoreLab
{
  public:
    SingleCoreLab(sim::MachineConfig cfg, stats::RunScale scale,
                  unsigned jobs = 1)
        : cfg_(cfg), scale_(scale), lab_({.jobs = jobs})
    {}

    /**
     * Batch-declare a sweep: every benchmark x pf_spec x degree
     * combination, plus the per-benchmark "none" baselines speedup()
     * divides by. Submission fans out across the Lab's workers; the
     * later run()/speedup() calls collect the memoized results.
     */
    void
    declare_sweep(const std::vector<std::string>& benchmarks,
                  const std::vector<std::string>& pf_specs,
                  const std::vector<std::uint32_t>& degrees = {1})
    {
        for (const auto& b : benchmarks)
            submit(b, "none", 1);
        for (const auto& b : benchmarks)
            for (const auto& pf : pf_specs)
                for (std::uint32_t d : degrees)
                    submit(b, pf, d);
    }

    /**
     * Declare benchmark x pf runs without the "none" baselines — for
     * labs whose speedup denominator lives in a different lab (e.g.
     * the sensitivity sweeps that perturb the machine config).
     */
    void
    declare(const std::vector<std::string>& benchmarks,
            const std::string& pf, std::uint32_t degree = 1)
    {
        for (const auto& b : benchmarks)
            submit(b, pf, degree);
    }

    /** Declare one custom-configured run (see run_custom). */
    void
    declare_custom(
        const std::string& benchmark, const std::string& variant,
        std::function<std::unique_ptr<prefetch::Prefetcher>(unsigned)>
            factory)
    {
        lab_.submit(custom_job(benchmark, variant, std::move(factory)));
    }

    const sim::RunResult&
    run(const std::string& benchmark, const std::string& pf,
        std::uint32_t degree = 1)
    {
        return lab_.result(submit(benchmark, pf, degree));
    }

    /**
     * Run @p benchmark under a prefetcher the spec grammar cannot
     * name; @p variant uniquely tags the configuration for
     * memoization.
     */
    const sim::RunResult&
    run_custom(
        const std::string& benchmark, const std::string& variant,
        std::function<std::unique_ptr<prefetch::Prefetcher>(unsigned)>
            factory)
    {
        return lab_.result(
            lab_.submit(custom_job(benchmark, variant,
                                   std::move(factory))));
    }

    double
    speedup(const std::string& benchmark, const std::string& pf,
            std::uint32_t degree = 1)
    {
        return stats::speedup(run(benchmark, pf, degree),
                              run(benchmark, "none"));
    }

    /** Geomean speedup of @p pf over the benchmark list. */
    double
    geomean_speedup(const std::vector<std::string>& benchmarks,
                    const std::string& pf, std::uint32_t degree = 1)
    {
        std::vector<double> v;
        v.reserve(benchmarks.size());
        for (const auto& b : benchmarks)
            v.push_back(speedup(b, pf, degree));
        return stats::geomean(v);
    }

    const sim::MachineConfig& config() const { return cfg_; }
    const stats::RunScale& scale() const { return scale_; }
    exec::Lab& lab() { return lab_; }

  private:
    exec::Lab::JobId
    submit(const std::string& benchmark, const std::string& pf,
           std::uint32_t degree)
    {
        exec::Job j;
        j.config = cfg_;
        j.benchmark = benchmark;
        j.pf_spec = pf;
        j.degree = degree;
        j.scale = scale_;
        return lab_.submit(std::move(j));
    }

    exec::Job
    custom_job(
        const std::string& benchmark, const std::string& variant,
        std::function<std::unique_ptr<prefetch::Prefetcher>(unsigned)>
            factory)
    {
        exec::Job j;
        j.config = cfg_;
        j.benchmark = benchmark;
        j.variant = variant;
        j.prefetcher_factory = std::move(factory);
        j.scale = scale_;
        return j;
    }

    sim::MachineConfig cfg_;
    stats::RunScale scale_;
    exec::Lab lab_;
};

/**
 * Multi-core lab: memoized (mix, pf, degree) runs, same scheduling
 * arrangement as SingleCoreLab. The core count is the mix size.
 */
class MixLab
{
  public:
    MixLab(sim::MachineConfig cfg, stats::RunScale scale,
           unsigned jobs = 1)
        : cfg_(cfg), scale_(scale), lab_({.jobs = jobs})
    {}

    /** Batch-declare mixes x pf_specs plus the "none" baselines. */
    void
    declare_sweep(const std::vector<workloads::Mix>& mixes,
                  const std::vector<std::string>& pf_specs,
                  const std::vector<std::uint32_t>& degrees = {1})
    {
        for (const auto& m : mixes)
            submit(m, "none", 1);
        for (const auto& m : mixes)
            for (const auto& pf : pf_specs)
                for (std::uint32_t d : degrees)
                    submit(m, pf, d);
    }

    /** Declare mix x pf runs without the "none" baselines. */
    void
    declare(const std::vector<workloads::Mix>& mixes,
            const std::string& pf, std::uint32_t degree = 1)
    {
        for (const auto& m : mixes)
            submit(m, pf, degree);
    }

    const sim::RunResult&
    run(const workloads::Mix& mix, const std::string& pf,
        std::uint32_t degree = 1)
    {
        return lab_.result(submit(mix, pf, degree));
    }

    double
    speedup(const workloads::Mix& mix, const std::string& pf,
            std::uint32_t degree = 1)
    {
        return stats::speedup(run(mix, pf, degree), run(mix, "none"));
    }

    const sim::MachineConfig& config() const { return cfg_; }
    const stats::RunScale& scale() const { return scale_; }
    exec::Lab& lab() { return lab_; }

  private:
    exec::Lab::JobId
    submit(const workloads::Mix& mix, const std::string& pf,
           std::uint32_t degree)
    {
        exec::Job j;
        j.config = cfg_;
        j.mix = mix;
        j.pf_spec = pf;
        j.degree = degree;
        j.scale = scale_;
        return lab_.submit(std::move(j));
    }

    sim::MachineConfig cfg_;
    stats::RunScale scale_;
    exec::Lab lab_;
};

/** "paper: +23.5%   measured: +21.0%" one-liner. */
inline void
paper_vs_measured(const std::string& what, const std::string& paper,
                  const std::string& measured)
{
    std::cout << "  " << what << ": paper " << paper << ", measured "
              << measured << "\n";
}

/** How Figs 6 and 20 define their accuracy columns. */
inline constexpr const char* kAccuracyDefinitions =
    "Accuracy here is useful / issued, where a prefetch demanded while "
    "its fill is still in flight (late) counts as useful. Timely "
    "accuracy is (useful - late) / issued; the late fraction is "
    "late / useful. The paper does not say whether it counts a late "
    "prefetch as accurate.\n";

} // namespace triage::bench

#endif // TRIAGE_BENCH_COMMON_HPP
