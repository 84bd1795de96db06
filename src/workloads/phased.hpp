/**
 * @file
 * PhasedWorkload: concatenate workloads into program phases. The paper
 * motivates periodic partition re-evaluation with phase changes
 * (Section 3, "Adjusting the Size of the Metadata Store"); this is the
 * workload shape that exercises it — e.g. an irregular pointer-chase
 * phase followed by a streaming phase should see the metadata ways
 * grow and then be handed back. A phase of 0 records plays its part
 * to the end once, which makes the same class a plain concatenation:
 * replaying a trace split at a record boundary must match replaying
 * it whole, one of the differential-fidelity checks
 * (tools/diff_fidelity).
 */
#ifndef TRIAGE_WORKLOADS_PHASED_HPP
#define TRIAGE_WORKLOADS_PHASED_HPP

#include <memory>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace triage::workloads {

/**
 * One phase: a workload and how many records it contributes. A
 * workload that runs out early restarts within its phase; 0 records
 * means "play the workload to its end, no restart".
 */
struct Phase {
    std::unique_ptr<sim::Workload> workload;
    std::uint64_t records = 0;
};

/** Sequential phases, restartable as a whole. */
class PhasedWorkload final : public sim::Workload
{
  public:
    PhasedWorkload(std::string name, std::vector<Phase> phases);

    void reset() override;
    bool next(sim::TraceRecord& out) override;
    const std::string& name() const override { return name_; }
    std::unique_ptr<sim::Workload> clone() const override;

    /** Index of the phase the next record comes from. */
    std::size_t current_phase() const { return phase_; }

  private:
    std::string name_;
    std::vector<Phase> phases_;
    std::size_t phase_ = 0;
    std::uint64_t emitted_in_phase_ = 0;
};

} // namespace triage::workloads

#endif // TRIAGE_WORKLOADS_PHASED_HPP
