#include "workloads/phased.hpp"

#include "util/log.hpp"

namespace triage::workloads {

PhasedWorkload::PhasedWorkload(std::string name, std::vector<Phase> phases)
    : name_(std::move(name)), phases_(std::move(phases))
{
    TRIAGE_ASSERT(!phases_.empty());
    for (const auto& p : phases_)
        TRIAGE_ASSERT(p.workload != nullptr);
}

void
PhasedWorkload::reset()
{
    phase_ = 0;
    emitted_in_phase_ = 0;
    for (auto& p : phases_)
        p.workload->reset();
}

bool
PhasedWorkload::next(sim::TraceRecord& out)
{
    while (phase_ < phases_.size()) {
        Phase& p = phases_[phase_];
        if (p.records == 0 || emitted_in_phase_ < p.records) {
            if (p.workload->next(out)) {
                ++emitted_in_phase_;
                return true;
            }
            if (p.records != 0) {
                // Underlying phase ran out early: restart it within
                // the phase.
                p.workload->reset();
                if (!p.workload->next(out))
                    return false; // empty underlying workload
                ++emitted_in_phase_;
                return true;
            }
        }
        ++phase_;
        emitted_in_phase_ = 0;
    }
    return false;
}

std::unique_ptr<sim::Workload>
PhasedWorkload::clone() const
{
    std::vector<Phase> copies;
    copies.reserve(phases_.size());
    for (const auto& p : phases_)
        copies.push_back({p.workload->clone(), p.records});
    return std::make_unique<PhasedWorkload>(name_, std::move(copies));
}

} // namespace triage::workloads
