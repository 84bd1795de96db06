/**
 * @file
 * Machine-readable run reports: serialize a RunResult as JSON so
 * external tooling (plotters, regression dashboards) can consume
 * simulator output without scraping tables.
 */
#ifndef TRIAGE_STATS_REPORT_HPP
#define TRIAGE_STATS_REPORT_HPP

#include <iosfwd>

#include "sim/run_stats.hpp"

namespace triage::obs {
struct Observability;
namespace json {
class Writer;
} // namespace json
} // namespace triage::obs

namespace triage::stats {

/**
 * Write @p r as a JSON object through @p w:
 * {
 *   "cores": [ {ipc, instructions, cycles, l1_misses, l2_misses,
 *               coverage, accuracy, pf_issued, pf_useful,
 *               meta_onchip, meta_offchip, meta_ways}, ... ],
 *   "llc": {demand_hits, demand_misses},
 *   "traffic": {demand, prefetch, writeback, metadata_read,
 *               metadata_write, total},
 *   "span_cycles": N
 * }
 */
void write_json(obs::json::Writer& w, const sim::RunResult& r);

/**
 * Version of the --stats-json layout, written as its first key. Bump
 * it when a key is renamed or removed or changes meaning
 * (docs/observability.md, "Output format").
 */
inline constexpr int STATS_SCHEMA_VERSION = 1;

/**
 * Full structured report for --stats-json: "schema_version", then the
 * RunResult under "run",
 * plus — when @p obs is non-null — the epoch time series under
 * "epochs" (one object per closed epoch, keys = probe names), the
 * hierarchical stats registry dump under "stats", and ring-buffer
 * accounting for the event trace under "trace".
 */
void write_stats_json(std::ostream& os, const sim::RunResult& r,
                      const obs::Observability* obs);

} // namespace triage::stats

#endif // TRIAGE_STATS_REPORT_HPP
