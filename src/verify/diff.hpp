/**
 * @file
 * Field-by-field RunResult comparison for the differential-fidelity
 * suite (tools/diff_fidelity, tests/test_verify.cpp). Two runs that
 * should be indistinguishable — degree-0 Triage vs no prefetcher, a
 * run forked from a warm checkpoint vs a cold one, split vs unsplit
 * trace replay, parallel vs serial lab execution — must agree on every
 * timing-visible statistic; the comparator names each field that does
 * not so a failure reads as a diagnosis, not a boolean.
 */
#ifndef TRIAGE_VERIFY_DIFF_HPP
#define TRIAGE_VERIFY_DIFF_HPP

#include <string>
#include <vector>

#include "sim/run_stats.hpp"

namespace triage::verify {

/**
 * Compare two runs field by field.
 * @return one human-readable line per differing field ("<field>: A vs
 *         B"), empty when the runs are stat-identical.
 */
std::vector<std::string> diff_results(const sim::RunResult& a,
                                      const sim::RunResult& b);

} // namespace triage::verify

#endif // TRIAGE_VERIFY_DIFF_HPP
