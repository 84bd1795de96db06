/**
 * @file
 * Named benchmark analogs.
 *
 * Each SPEC2006 / CloudSuite benchmark from the paper's evaluation maps
 * to a deterministic synthetic workload whose kernels reproduce the
 * properties the paper's mechanisms depend on (PC-localized temporal
 * correlation, footprint size vs LLC, regular vs irregular split,
 * compulsory-miss fraction). DESIGN.md documents the substitution.
 */
#ifndef TRIAGE_WORKLOADS_SPEC_HPP
#define TRIAGE_WORKLOADS_SPEC_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/synthetic.hpp"

namespace triage::workloads {

/**
 * Build the analog for @p name.
 * @param scale multiplies the pass length (1.0 = default bench scale).
 * @param seed_jitter XORed into the benchmark's canonical seed; 0 (the
 *        default) reproduces the published streams, non-zero values
 *        give reproducible independent replicas (exec::Job::replica).
 * Fatal if the name is unknown or @p scale is not finite and > 0.
 */
std::unique_ptr<SyntheticWorkload>
make_benchmark(const std::string& name, double scale = 1.0,
               std::uint64_t seed_jitter = 0);

/**
 * Resolve any workload spec string: a benchmark-analog name from the
 * table, or a `trace:<path>` / `trace[<fmt>]:<path>` spec naming an
 * external trace file (frontend::parse_trace_spec grammar). Trace
 * workloads stream from disk with bounded memory; @p scale and
 * @p seed_jitter apply to benchmark analogs only (a trace is a fixed
 * recording — replicas of it are the identical stream). @p instance
 * selects the per-core address-space offset for multi-programmed
 * mixes (Workload-level set_instance for analogs happens in the
 * kernels; traces shift addr/pc by the instance id).
 * Fatal on unknown benchmark names; returns nullptr only if a trace
 * file cannot be opened.
 */
std::unique_ptr<sim::Workload>
make_workload(const std::string& spec, double scale = 1.0,
              std::uint64_t seed_jitter = 0, unsigned instance = 0);

/** The paper's irregular SPEC2006 subset (Figure 5 x-axis). */
const std::vector<std::string>& irregular_spec();

/** The remaining memory-intensive (regular) SPEC2006 set (Figure 8). */
const std::vector<std::string>& regular_spec();

/** CloudSuite server benchmarks (Figure 14). */
const std::vector<std::string>& cloudsuite();

/** All SPEC names (irregular + regular), the mix-drawing pool. */
std::vector<std::string> all_spec();

} // namespace triage::workloads

#endif // TRIAGE_WORKLOADS_SPEC_HPP
