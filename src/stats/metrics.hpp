/**
 * @file
 * Derived metrics shared by the bench harness: speedups, traffic
 * overheads, geometric means.
 */
#ifndef TRIAGE_STATS_METRICS_HPP
#define TRIAGE_STATS_METRICS_HPP

#include <vector>

#include "sim/run_stats.hpp"

namespace triage::stats {

/** Geometric mean of @p values (empty => 1.0). */
double geomean(const std::vector<double>& values);

/**
 * Speedup of @p with_pf over @p baseline: geometric mean of per-core
 * IPC ratios (the paper's multi-programmed metric; single-core it is
 * just the IPC ratio).
 */
double speedup(const sim::RunResult& with_pf,
               const sim::RunResult& baseline);

/**
 * Off-chip traffic overhead relative to the no-prefetch baseline:
 * (bytes_pf - bytes_base) / bytes_base (Figure 11's bottom panel uses
 * the same quantity as a ratio; Figure 12's x-axis as a percentage).
 */
double traffic_overhead(const sim::RunResult& with_pf,
                        const sim::RunResult& baseline);

/** Total bytes moved in a run. */
std::uint64_t total_traffic(const sim::RunResult& r);

/**
 * LLC demand-miss reduction vs baseline (Figure 14's secondary
 * metric), as a fraction in [-inf, 1].
 */
double miss_reduction(const sim::RunResult& with_pf,
                      const sim::RunResult& baseline);

/** Average prefetch coverage across cores. */
double avg_coverage(const sim::RunResult& r);

/** Average prefetch accuracy across cores. */
double avg_accuracy(const sim::RunResult& r);

/**
 * How much of the L2 prefetcher's accuracy arrived in time, averaged
 * across cores like avg_accuracy. accuracy() counts a late prefetch
 * (demanded while its fill is still in flight) as useful; these split
 * it out.
 */
struct Timeliness {
    double timely_accuracy = 0; ///< (useful - late) / issued
    double late_fraction = 0;   ///< late / useful
};
Timeliness avg_timeliness(const sim::RunResult& r);

} // namespace triage::stats

#endif // TRIAGE_STATS_METRICS_HPP
