/**
 * @file
 * Experiment harness shared by the figure benches and examples: a
 * string-spec prefetcher factory and single-/multi-core run drivers.
 *
 * Prefetcher specs: "none", "bo", "sms", "markov", "stms", "domino",
 * "misb", "triage_512KB", "triage_1MB", "triage_dyn",
 * "triage_unlimited", and hybrids joined with '+', e.g.
 * "bo+triage_dyn". Every spec takes the run's prefetch degree.
 */
#ifndef TRIAGE_STATS_EXPERIMENT_HPP
#define TRIAGE_STATS_EXPERIMENT_HPP

#include <memory>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/config.hpp"
#include "sim/run_stats.hpp"
#include "workloads/mixes.hpp"

namespace triage::stats {

/** Scale knobs every bench accepts (see DESIGN.md Section 6). */
struct RunScale {
    std::uint64_t warmup_records = 400000;
    std::uint64_t measure_records = 1000000;
    double workload_scale = 1.0;

    /**
     * Presence flags: set by from_args when the corresponding flag was
     * explicitly given on the command line. Lets callers with
     * different defaults (e.g. bench::multi_core_scale) honor an
     * explicit CLI value even when it equals the single-core default.
     */
    bool warmup_set = false;
    bool measure_set = false;
    bool scale_set = false;

    /** Parse --scale=F / --warmup=N / --measure=N args; a malformed
     *  value exits 1 after one error line (util::parse_number). */
    static RunScale from_args(int argc, char** argv);
    /** --mixes=N when present (default @p def); checked the same way. */
    static unsigned mixes_from_args(int argc, char** argv, unsigned def);
};

/** Build one prefetcher instance from a spec string. */
std::unique_ptr<prefetch::Prefetcher>
make_prefetcher(const std::string& spec, std::uint32_t degree = 1);

/**
 * Single-core run of @p benchmark under @p pf_spec.
 * "none" runs the no-L2-prefetch baseline (the L1 stride prefetcher
 * from Table 1 stays on in all configurations).
 *
 * Thin wrapper over a one-job exec::Lab (defined in exec/wrappers.cpp);
 * batch sweeps should build exec::Jobs and submit them to a shared
 * Lab instead — see docs/parallel-runs.md.
 */
sim::RunResult run_single(const sim::MachineConfig& cfg,
                          const std::string& benchmark,
                          const std::string& pf_spec,
                          const RunScale& scale,
                          std::uint32_t degree = 1,
                          obs::Observability* obs = nullptr);

/** Multi-core run of @p mix (benchmark name per core); same wrapper
 *  arrangement as run_single. Per-core metadata ways are in
 *  RunResult::per_core[c].avg_metadata_ways. */
sim::RunResult run_mix(const sim::MachineConfig& cfg,
                       const workloads::Mix& mix,
                       const std::string& pf_spec, const RunScale& scale,
                       std::uint32_t degree = 1,
                       obs::Observability* obs = nullptr);

} // namespace triage::stats

#endif // TRIAGE_STATS_EXPERIMENT_HPP
